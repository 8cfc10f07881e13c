"""VC-dimension bounds and verified shattering witnesses for 1NN(d, m).

1NN(d, m) is the family of nearest-neighbour classifiers on R^d with a
reference set of m labelled prototypes. This package evaluates the known
lower and upper bounds on its VC dimension, builds the explicit planar
point arrangements that realise the lower bounds, verifies the shattering
exhaustively over all labelings, and complements the constructions with a
randomized search certifier.

The primitives work on arrays of points: ``evaluate_margins`` gives the
1NN label and margin of each point, ``geometry.contains_many`` each
point's membership of a polytope, and ``Labeling.array`` the labels of a
labelling. A single point is a one-row array, e.g. ``evaluate_margins(s, [x])``.
"""

from .bounds import (
    BoundsReport,
    compute_bounds,
    compute_bounds_range,
    lambert_wm1,
    lower_bound,
    sample_size_estimate,
    shatter_coefficient_bound,
    shatter_q,
    upper_bound_loose,
    upper_bound_tight,
)
from .classifier import (
    DEFAULT_MU,
    LabeledPrototypeSet,
    Labeling,
    evaluate_margins,
    realizes,
)
from .constructions import (
    Arrangement,
    gunn_arrangement,
    gunn_shatter,
    polytope_to_prototypes,
    takacs_arrangement,
    takacs_shatter,
)
from .geometry import (
    DEFAULT_TOL,
    ConvexPolytope,
    Halfspace,
    reflect,
    regular_polygon_vertices,
)
from .verification import (
    SearchBudget,
    SearchConfig,
    ShatterCertificate,
    search_lower_bound,
    shatter_coefficient_exhaustive,
    verify_shattering,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BoundsReport",
    "ConvexPolytope",
    "DEFAULT_MU",
    "DEFAULT_TOL",
    "Halfspace",
    "LabeledPrototypeSet",
    "Labeling",
    "SearchBudget",
    "SearchConfig",
    "ShatterCertificate",
    "compute_bounds",
    "compute_bounds_range",
    "evaluate_margins",
    "gunn_arrangement",
    "gunn_shatter",
    "lambert_wm1",
    "lower_bound",
    "polytope_to_prototypes",
    "realizes",
    "reflect",
    "regular_polygon_vertices",
    "sample_size_estimate",
    "search_lower_bound",
    "shatter_coefficient_bound",
    "shatter_coefficient_exhaustive",
    "shatter_q",
    "takacs_arrangement",
    "takacs_shatter",
    "upper_bound_loose",
    "upper_bound_tight",
    "verify_shattering",
]
