"""Oriented-edge image description and translation+scale matching.

The package detects subpixel oriented edges with spectral derivatives,
enumerates two-edge basis hypotheses between a reference and a probe
edge set, verifies candidate transforms by counting coincidences, and
estimates the probability that corruption destroys every usable basis.
"""

from .basis import (
    BasisPair,
    HypothesisConfig,
    Transform,
    compatible_pairs,
    enumerate_basis_pairs,
    find_compatible_pairs,
    iter_basis_pairs,
)
from .edges import (
    Edge,
    EdgeSet,
    EdgeSetFormatError,
    parse,
    query_near_batch,
    serialize,
)
from .gallery import (
    Gallery,
    GalleryEntry,
    GalleryError,
    enroll,
    load_gallery,
    search,
)
from .image_io import GrayImage, PgmFormatError, load_pgm, save_pgm
from .overlay import render_overlay
from .probability import (
    ProbabilityParams,
    expected_trials,
    miss_probability_general,
    monte_carlo_miss,
)
from .spectral import (
    EdgeExtractionConfig,
    GradientField,
    extract_edges,
    isophote_curvature,
    spectral_gradient,
)
from .synth import (
    CorruptionSpec,
    Disk,
    Rect,
    corrupt_and_transform,
    random_edge_set,
    render_shapes,
)
from .verify import (
    MatchResult,
    VerifyConfig,
    count_coincidences,
    match,
    match_each,
    screen_branches,
    sequential_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BasisPair",
    "CorruptionSpec",
    "Disk",
    "Edge",
    "EdgeExtractionConfig",
    "EdgeSet",
    "EdgeSetFormatError",
    "Gallery",
    "GalleryEntry",
    "GalleryError",
    "GradientField",
    "GrayImage",
    "HypothesisConfig",
    "MatchResult",
    "PgmFormatError",
    "ProbabilityParams",
    "Rect",
    "Transform",
    "VerifyConfig",
    "compatible_pairs",
    "corrupt_and_transform",
    "count_coincidences",
    "enroll",
    "enumerate_basis_pairs",
    "expected_trials",
    "extract_edges",
    "find_compatible_pairs",
    "isophote_curvature",
    "iter_basis_pairs",
    "load_gallery",
    "load_pgm",
    "match",
    "match_each",
    "miss_probability_general",
    "monte_carlo_miss",
    "parse",
    "query_near_batch",
    "random_edge_set",
    "render_overlay",
    "render_shapes",
    "save_pgm",
    "screen_branches",
    "search",
    "serialize",
    "spectral_gradient",
    "__version__",
]
