"""Run configuration and centralized tolerances.

One knob per failure class: eps_psd guards physicality checks, eps_feas
guards solver-produced witnesses (looser, since those are optimizer
outputs rather than closed forms), and EIG_TOL fixes the accuracy
expected of eigenvalue routines.
"""

from dataclasses import dataclass

#: PSD margin accepted when validating covariance matrices / channels.
EPS_PSD = 1e-9

#: Margin accepted for solver-produced feasibility witnesses.
EPS_FEAS = 1e-7

#: Accuracy expected of eigenvalue computations.
EIG_TOL = 1e-10


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
