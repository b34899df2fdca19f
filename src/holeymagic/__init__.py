"""Magic rectangles with empty cells.

Construction of MR(m,n;r,s) grids from their parameter families,
verification of the magic properties, existence decisions, ingredient
search with a persistent cache, and an independent brute-force oracle.
"""

from . import oracle
from .construct import (
    NmssResult,
    block_set,
    five_case,
    nmss,
    product,
    realize,
    stacked,
    two_per_column,
)
from .errors import (
    BadIngredient,
    CacheError,
    CorruptCache,
    HoleyMagicError,
    NotConstructible,
    ParityError,
    ParseError,
    SearchBudgetExceeded,
    ShapeError,
)
from .existence import Decision, decide, necessary_conditions
from .grid import (
    HoleyGrid,
    MagicSpec,
    VerificationReport,
    Violation,
    parse,
    serialize,
    verify,
)
from .ingredients import (
    DiagonalProfile,
    IngredientCache,
    classical_rectangle,
    magic_rectangle_set,
    magic_square_holes,
)
from .kotzig import KotzigArray, base_pair, base_triple, kotzig
from .oracle import EnumerationResult, exists_brute

__version__ = "0.1.0"

__all__ = [
    "BadIngredient",
    "CacheError",
    "CorruptCache",
    "Decision",
    "DiagonalProfile",
    "EnumerationResult",
    "HoleyGrid",
    "HoleyMagicError",
    "IngredientCache",
    "KotzigArray",
    "MagicSpec",
    "NmssResult",
    "NotConstructible",
    "ParityError",
    "ParseError",
    "SearchBudgetExceeded",
    "ShapeError",
    "VerificationReport",
    "Violation",
    "base_pair",
    "base_triple",
    "block_set",
    "classical_rectangle",
    "decide",
    "exists_brute",
    "five_case",
    "kotzig",
    "magic_rectangle_set",
    "magic_square_holes",
    "necessary_conditions",
    "nmss",
    "oracle",
    "parse",
    "product",
    "realize",
    "serialize",
    "stacked",
    "two_per_column",
    "verify",
]
