"""Entanglement breaking channels in Holevo form.

A channel here is a finite list of pairs (F_k, R_k): a POVM of effects and
the density matrices they steer to.  The induced column-stochastic matrix
S = (tr(F_i R_j)) shares its nonzero spectrum with the channel's linear
action, and primitivity of the channel reduces to primitivity of S plus
invertibility of the summed states.  This package builds such channels,
computes both representations, and decides and quantifies primitivity on
each side, with explicit witnesses for every negative verdict.
"""

from .channel import (FixedPoint, HolevoForm, SpectrumComparison,
                      apply_linear, choi, choi_pair_sum,
                      compare_nonzero_spectrum, depolarizing, factorization,
                      fixed_point, holevo_from_rank_one_kraus, iterated_form,
                      make_holevo_form, map_to_diagonal, natural_rep,
                      qc_from_stochastic, require_density, stochastic_rep)
from .checks import CheckResult, all_passed, run_channel_checks
from .errors import (ColumnSumViolation, ConsistencyError, ConvergenceFailure,
                     DimensionMismatch, DocumentSyntaxError, EbchanError,
                     KrausRankTooHigh, NegativeEntry, NotDensity, NotHermitian,
                     NotPOVM, NotPSD, NotStochastic, StationarySolveFailure,
                     SubsetCapExceeded, TracePreservationViolation,
                     ValidationError, ZeroEffect)
from .linalg import (DEFAULT_TOL, Tolerances, eig_general, eig_hermitian,
                     is_pd, is_psd, kernel_psd, tensor, unvec, vec)
from .primitivity import (SUBSET_CAP, ChannelPrimitivityReport,
                          HolevoRankBounds, IndexBoundComparison,
                          StrictPositivityResult, channel_primitivity_index,
                          holevo_rank_bounds, is_primitive_channel,
                          quantum_wielandt_comparison, strictly_positive_at,
                          sum_R_positive_definite, sweep_positive_iterate)
from .sampling import (random_channel, random_density, random_holevo_form,
                       random_pure_state, random_qc_form, random_stochastic,
                       wielandt_matrix)
from .serialization import (emit_channel_document, form_to_document,
                            parse_channel_document, parse_kraus_file,
                            parse_state_file, parse_stochastic_file,
                            state_to_file, stochastic_to_file)
from .stochastic import (PrimitivityVerdict, make_stochastic,
                         primitivity_index, stationary_distribution,
                         wielandt_bound)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "SUBSET_CAP", "ChannelPrimitivityReport", "CheckResult",
    "ColumnSumViolation", "ConsistencyError", "ConvergenceFailure",
    "DimensionMismatch", "DocumentSyntaxError", "EbchanError", "FixedPoint",
    "HolevoForm", "HolevoRankBounds", "IndexBoundComparison",
    "KrausRankTooHigh", "NegativeEntry", "NotDensity", "NotHermitian",
    "NotPOVM", "NotPSD", "NotStochastic", "PrimitivityVerdict",
    "SpectrumComparison", "StationarySolveFailure", "StrictPositivityResult",
    "SubsetCapExceeded", "Tolerances", "TracePreservationViolation",
    "ValidationError", "ZeroEffect", "all_passed", "apply_linear",
    "channel_primitivity_index", "choi", "choi_pair_sum",
    "compare_nonzero_spectrum", "depolarizing", "eig_general",
    "eig_hermitian", "emit_channel_document", "factorization", "fixed_point",
    "form_to_document", "holevo_from_rank_one_kraus", "holevo_rank_bounds",
    "is_pd", "is_primitive_channel", "is_psd",
    "iterated_form", "kernel_psd", "make_holevo_form", "make_stochastic",
    "map_to_diagonal", "natural_rep", "parse_channel_document",
    "parse_kraus_file", "parse_state_file", "parse_stochastic_file",
    "primitivity_index", "qc_from_stochastic", "quantum_wielandt_comparison",
    "random_channel", "random_density", "random_holevo_form",
    "random_pure_state", "random_qc_form", "random_stochastic",
    "require_density", "run_channel_checks", "state_to_file",
    "stationary_distribution", "stochastic_rep", "stochastic_to_file",
    "strictly_positive_at", "sum_R_positive_definite",
    "sweep_positive_iterate", "tensor", "unvec", "vec", "wielandt_bound",
    "wielandt_matrix",
]
