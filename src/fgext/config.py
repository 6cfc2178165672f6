"""Run configuration and centralized tolerances.

One knob per failure class: eps_psd guards physicality checks, and
eps_feas the infeasible verdicts (looser, since those rest on optimizer
outputs). A witness must pass both: margin >= -min(eps_feas, eps_psd).
"""

import math
from dataclasses import dataclass
from numbers import Integral, Real

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
        for name in ("eps_psd", "eps_feas"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, not {value!r}")
        for name, low in (("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
        if self.output_format not in ("json", "table"):
            raise ValueError("output_format must be 'json' or 'table'")


DEFAULT_CONFIG = RunConfig()
