"""Run configuration and the one integer check.

A run reads three settings, each written once as a RunConfig default.
One tolerance per failure class: eps_psd guards physicality checks, and
eps_feas the infeasible verdicts (looser, since those rest on optimizer
outputs). A witness must pass both: margin >= -min(eps_feas, eps_psd).
"""

import math
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import InvalidParameterError


def is_count(value, low: int = 1) -> bool:
    """True iff value is an integer of at least low; numpy integers are, bools are not."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and solver budget shared by all entry points.

    eps_psd is the PSD margin accepted when validating covariance matrices
    and channels; eps_feas the slack of the prechecks and of the solver's
    dual bound and ambiguous band; max_iters caps the interior-point
    iterations of one solver run (a run usually takes fewer than 15).
    InvalidParameterError unless the tolerances are finite and positive and
    max_iters is an integer of at least 1.
    """

    eps_psd: float = 1e-9
    eps_feas: float = 1e-7
    max_iters: int = 20000

    def __post_init__(self):
        for name in ("eps_psd", "eps_feas"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise InvalidParameterError(f"{name} must be a finite positive number, not {value!r}")
        if not is_count(self.max_iters):
            raise InvalidParameterError(f"max_iters must be an integer >= 1, not {self.max_iters!r}")


DEFAULT_CONFIG = RunConfig()
