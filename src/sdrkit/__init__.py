"""sdrkit: deterministic encoders from raw data to sparse distributed
representations, plus an evaluator that scores any encoder against formal
semantic-similarity criteria."""

from .categories import CategoryEncoder
from .composite import DatetimeEncoder, MultiEncoder, concat
from .errors import (
    ConfigError,
    DimensionMismatch,
    EvaluationError,
    InputError,
    InvalidSdr,
    MissingFieldError,
    ParseError,
    ProjectionError,
    RangeError,
    SdrError,
    UnknownCategoryError,
)
from .geospatial import GeospatialEncoder, GridCoordinate, gps_to_grid, neighborhood
from .hashing import coordinate_hash, mix64
from .quality import (
    EvaluationReport,
    absolute_difference,
    chebyshev_distance,
    check_distance_axioms,
    circular_distance,
    discrete_distance,
    evaluate_encoder,
)
from .scalars import (
    CyclicEncoder,
    DeltaEncoder,
    ScalarEncoder,
    UnboundedScalarEncoder,
)
from .sdr import (
    SDR,
    from_dense_string,
    from_sparse_string,
    overlap,
    sparsity,
    to_dense_array,
    to_dense_string,
    to_sparse_string,
)

__version__ = "0.1.0"

__all__ = [
    "SDR",
    "overlap",
    "sparsity",
    "to_dense_string",
    "from_dense_string",
    "to_sparse_string",
    "from_sparse_string",
    "to_dense_array",
    "ScalarEncoder",
    "CyclicEncoder",
    "DeltaEncoder",
    "UnboundedScalarEncoder",
    "CategoryEncoder",
    "GeospatialEncoder",
    "GridCoordinate",
    "neighborhood",
    "gps_to_grid",
    "mix64",
    "coordinate_hash",
    "concat",
    "MultiEncoder",
    "DatetimeEncoder",
    "check_distance_axioms",
    "evaluate_encoder",
    "EvaluationReport",
    "absolute_difference",
    "circular_distance",
    "chebyshev_distance",
    "discrete_distance",
    "SdrError",
    "DimensionMismatch",
    "InvalidSdr",
    "ParseError",
    "ConfigError",
    "InputError",
    "RangeError",
    "UnknownCategoryError",
    "MissingFieldError",
    "EvaluationError",
    "ProjectionError",
]
