"""Run configuration and centralized tolerances.

One knob per failure class: eps_psd guards physicality checks, and
eps_feas the infeasible verdicts (looser, since those rest on optimizer
outputs). A witness must pass both: margin >= -min(eps_feas, eps_psd).
"""

from dataclasses import dataclass

#: PSD margin accepted when validating covariance matrices / channels.
EPS_PSD = 1e-9

#: Slack of the prechecks and of the solver's dual bound and ambiguous band.
EPS_FEAS = 1e-7


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and solver budget shared by all entry points.

    max_iters caps the interior-point iterations of one solver run (a
    run usually takes fewer than 15). seed drives the randomized
    oracle-verify suites; the solver is deterministic and ignores it.
    """

    eps_psd: float = EPS_PSD
    eps_feas: float = EPS_FEAS
    max_iters: int = 20000
    seed: int = 0
    output_format: str = "json"

    def __post_init__(self):
        if self.eps_psd <= 0 or self.eps_feas <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.output_format not in ("json", "table"):
            raise ValueError("output_format must be 'json' or 'table'")


DEFAULT_CONFIG = RunConfig()
