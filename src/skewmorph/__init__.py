"""Skew-morphisms of elementary abelian p-groups: enumeration,
validation and structural classification.

The hot kernels live in ``_kernels``, in numpy.
"""

from ._kernels import current_backend
from .enumeration import (
    compare_sets,
    formula_count,
    full_enum,
    nonnormal_count,
    write_summary_csv,
)
from .skew_core import (
    SkewMorphism,
    SkewProductGroup,
    SkewValidationError,
    build_skew_product,
    extract_skew,
    read_jsonl,
    validate,
    write_jsonl,
)
from .structure_verify import (
    build_and_verify_example,
    classify,
    find_affine_embedding,
    sweep_classify,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "SkewMorphism",
    "SkewProductGroup",
    "SkewValidationError",
    "build_and_verify_example",
    "build_skew_product",
    "classify",
    "compare_sets",
    "current_backend",
    "extract_skew",
    "find_affine_embedding",
    "formula_count",
    "full_enum",
    "nonnormal_count",
    "read_jsonl",
    "sweep_classify",
    "validate",
    "verify_theorem1",
    "write_jsonl",
    "write_summary_csv",
]
