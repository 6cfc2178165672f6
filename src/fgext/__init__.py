"""Extendibility of fermionic Gaussian states from covariance matrices.

Layers:

* matalg  — antisymmetric/Hermitian matrix algebra (spectra, Pfaffian,
  canonical form, norms);
* fgs     — covariance matrices, standard states, entropies, overlap;
* oracle  — dense Fock-space ground truth at small mode counts;
* extend  — the (k1, k2)-extendibility feasibility problem, analytic
  prechecks, explicit extensions;
* bounds  — finite de Finetti bounds and the two-mode extendible family;
* channels — Gaussian channel validity, antidegradability,
  entanglement-breaking classification;
* cli     — `fgext` command-line interface over all of the above.
"""

from .config import DEFAULT_CONFIG, RunConfig
from .matalg import (
    AntisymmetricMatrix,
    CanonicalForm,
    antisymmetrize,
    canonical_form,
    hermitian_spectrum,
    min_eigenvalue,
    norms,
    pfaffian,
)
from .fgs import (
    BipartiteCM,
    CovarianceMatrix,
    bell_cm,
    binary_entropy,
    epr_cm,
    gaussian_entropy,
    marginal,
    mutual_information,
    overlap,
    product_cm,
    single_mode_cm,
    vacuum_cm,
    validate_cm,
)
from .oracle import (
    DenseState,
    cm_from_state,
    entropies,
    state_from_cm,
    trace_distance,
    wick_check,
)
from .extend import (
    ExtendQuery,
    FeasibilityResult,
    FeasibilityStatus,
    build_extension,
    feasibility,
    is_separable_gaussian,
    precheck_columnsum,
    precheck_lemma3,
)
from .bounds import (
    DeFinettiReport,
    bosonic_strategy_lower_bound,
    definetti_bounds,
    epsilon_family,
    family_cm,
    family_spectrum,
    lower_bound_two_mode,
    trace_upper_from_cm,
)
from .channels import (
    GaussianChannel,
    antidegradable,
    apply_channel,
    channel_k_extendible,
    choi_cm,
    is_entanglement_breaking,
    pure_loss,
    validate_channel,
)
from .io import load_cm, load_channel, save_cm, save_channel

__version__ = "0.1.0"
