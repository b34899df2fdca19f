"""Deterministic constructions of magic rectangles with empty cells.

Each operation turns parameters (plus pre-built ingredient grids where
needed) into a grid that passes verify for its declared spec.  Ingredients,
or the grid built from them, are re-validated here even when they come
from the trusted catalog.
BUILDS gives each route of existence.ROUTES one build from its params,
which fetches the ingredients and calls the constructor.  Every gate is
existence.require, and the builds run theirs before any ingredient fetch,
so a refused shape never starts a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import existence, ingredients
from .errors import BadIngredient, NotConstructible
from .grid import Cells, HoleyGrid, MagicSpec, above, beside
from .ingredients import _mrs_gate, require_magic, require_ms, two_per_column
from .kotzig import kotzig, lift


@dataclass(frozen=True)
class NmssResult:
    """t holey magic squares jointly holding 0..mst-1, every row and column
    of every square summing to `constant`."""

    squares: Tuple[HoleyGrid, ...]
    constant: int


def _stacked_squares(m: int, k: int, s: int, square: HoleyGrid) -> List[Cells]:
    """The cells of the k subsquares of the stacked construction: copies
    of the ingredient lifted through a Kotzig array, its diagonals as
    classes, label i on the i-th support diagonal down from the top of
    the run."""
    label_of = {d: i for i, d in enumerate(require_ms(square, m, s))}
    return lift(square, lambda i, j: label_of[(j - i) % m], kotzig(s, k))


def stacked(m: int, k: int, s: int, square: HoleyGrid) -> HoleyGrid:
    """MR(m, km; ks, s) from an s-diagonal MS(m;s) ingredient; s = 2 is
    two_per_column and takes no square."""
    _stacked_gate(m, k, s)
    if s == 2:
        return two_per_column(m, k)
    return beside(_stacked_squares(m, k, s, square))


def nmss(m: int, s: int, t: int, square: HoleyGrid) -> NmssResult:
    """Nonconsecutive magic square set: the t subsquares of the stacked
    construction kept separate, sharing the constant s(mst-1)/2."""
    existence.require(existence.nmss_exists, m, s, t)
    squares = tuple(HoleyGrid(m, m, cells) for cells in _stacked_squares(m, t, s, square))
    constant = s * (m * s * t - 1) // 2
    return NmssResult(squares, constant)


def product(square: HoleyGrid, rect: HoleyGrid) -> HoleyGrid:
    """MR(am, bm; bs, as) from an MS(m;s) and a full a x b magic rectangle.

    Every filled cell (i,j;k) of the square becomes an a x b block holding
    a translate of the rectangle: cell (p,q;l) of the rectangle lands at
    (ia+p, jb+q) with value k*ab + l.
    """
    if square.rows != square.cols:
        raise BadIngredient(f"first ingredient must be square, got {square.rows}x{square.cols}")
    m = square.rows
    s = m - square.cells[0].count(None)  # require_magic checks every other line
    require_magic(square, MagicSpec(m, m, s, s), f"MS({m};{s}) ingredient")
    a, b = rect.rows, rect.cols
    require_magic(rect, MagicSpec(a, b, b, a), f"MR({a},{b}) ingredient")

    ab = a * b
    cells: List[List] = [[None] * (b * m) for _ in range(a * m)]
    for i, row in enumerate(square.cells):
        for j, k in enumerate(row):
            if k is not None:  # a full rectangle: every rect cell holds a value
                for p, rect_row in enumerate(rect.cells):
                    cells[i * a + p][j * b:(j + 1) * b] = [k * ab + l for l in rect_row]
    return HoleyGrid.from_rows(cells)


def five_case(m: int, s: int, square2m: HoleyGrid, strip: HoleyGrid) -> HoleyGrid:
    """MR(2m, 3m; 3s, 2s) from an MS(2m;2s) and an MR(m,2m;2s,s) strip.

    Every square value below ms and every strip value from ms up gets
    bumped by 4ms, then the strip is glued on transposed.  The splice is
    magic when the square's values below ms meet each of its rows and
    columns s/2 times, and the strip's values from ms up meet each strip
    row s times and each strip column s/2 times.  It is checked once, so
    any other pair raises BadIngredient.
    """
    existence.require(existence.five_case_exists, m, s)
    if (square2m.rows, square2m.cols) != (2 * m, 2 * m) or (strip.rows, strip.cols) != (m, 2 * m):
        raise BadIngredient(f"need a {2 * m}x{2 * m} square and a {m}x{2 * m} strip, got "
                            f"{square2m.rows}x{square2m.cols} and {strip.rows}x{strip.cols}")
    ms = m * s
    bump = 4 * ms
    big = [[v + bump if v is not None and v < ms else v for v in row] for row in square2m.cells]
    tall = [[v + bump if v is not None and v >= ms else v for v in col] for col in zip(*strip.cells)]
    grid = beside([big, tall])
    require_magic(grid, MagicSpec(2 * m, 3 * m, 3 * s, 2 * s),
                  f"MR({2 * m},{3 * m};{3 * s},{2 * s}) five-case splice")
    return grid


def block_set(a: int, b: int, c: int, rects: Sequence[HoleyGrid]) -> HoleyGrid:
    """MR(ac, bc; b, a) with the c members of an MRS(a,b;c) on the block
    diagonal and every other block empty.  The grid passes verify exactly
    when the members form an MRS(a,b;c)."""
    _mrs_gate(a, b, c)
    if len(rects) != c:
        raise BadIngredient(f"expected {c} rectangles, got {len(rects)}")
    cells: List[List] = [[None] * (b * c) for _ in range(a * c)]
    for k, rect in enumerate(rects):
        if (rect.rows, rect.cols) != (a, b):
            raise BadIngredient(f"member {k} is {rect.rows}x{rect.cols}, expected {a}x{b}")
        for p, row in enumerate(rect.cells):
            cells[k * a + p][k * b:(k + 1) * b] = row
    grid = HoleyGrid.from_rows(cells)
    require_magic(grid, MagicSpec(a * c, b * c, b, a), f"MRS({a},{b};{c}) block diagonal")
    return grid


def _stacked_gate(m: int, k: int, s: int) -> None:
    if not (s == 2 and existence.is_int(s)):  # two_per_column gates s = 2
        existence.require(existence.nmss_exists, m, s, k)


def _build_stacked(m, k, s, **kw):
    _stacked_gate(m, k, s)
    square = None if s == 2 else ingredients.magic_square_holes(m, s, **kw)
    return stacked(m, k, s, square)


def _build_nmss(m, s, t, **kw):
    """The construct nmss command's build: an NmssResult, not a grid."""
    existence.require(existence.nmss_exists, m, s, t)
    return nmss(m, s, t, ingredients.magic_square_holes(m, s, **kw))


def _build_five_case(m, s, **kw):
    """The strip is an MR(m,2m;2s,s) whose m x m halves each hold s/2
    values below ms in every row.  The square stacks two lifted copies of
    it: copy 0 keeps half 0's values and copy 1 keeps half 1's, so every
    square row has s/2 values below ms, and every square column holds the
    low cells of one strip column, s/2 of them.  That is what five_case
    needs of both, so only the strip's MS(m;s) is ever searched."""
    existence.require(existence.five_case_exists, m, s)
    strip = _build_stacked(m, 2, s, **kw)
    square2m = above(lift(strip, lambda i, j: j // m, kotzig(2, 2)))
    return five_case(m, s, square2m, strip)


def _build_product(m, s, a, b, **kw):
    # refuse by ingredient: the product's shape may exist by another route
    existence.require(existence.ms_exists, m, s)
    existence.require(existence.mr_exists, a, b)
    return product(ingredients.magic_square_holes(m, s, **kw),
                   ingredients.classical_rectangle(a, b, **kw))


# Route name -> build(*params, **kw): params as existence.ROUTES gives them
# (or as the construct subcommands take them), kw (cache, budget) for the
# ingredient lookups.  Builds look the constructors up by module name at
# call time, so wrappers set on those names (holeybench/trace.py) see them.
BUILDS = {
    "Trivial": lambda **kw: HoleyGrid.from_rows([[0]]),
    "Classical": lambda a, b, **kw: ingredients.classical_rectangle(a, b, **kw),
    "TwoPerColumn": lambda m, k, **kw: two_per_column(m, k),
    "Stacked": _build_stacked,
    "FiveCase": _build_five_case,
    "Product": _build_product,
    "BlockSet": lambda a, b, c, **kw: block_set(
        a, b, c, ingredients.magic_rectangle_set(a, b, c, **kw)),
}


def realize(m: int, n: int, r: int, s: int, *, cache=None,
            budget: int = ingredients.DEFAULT_BUDGET) -> HoleyGrid:
    """Build a witness for an Exists verdict of decide(m, n, r, s).

    Raises NotConstructible when the verdict is NotExists or Unknown, and
    passes SearchBudgetExceeded, inconclusive, through from the ingredients.
    """
    decision = existence.decide(m, n, r, s)
    if decision.verdict != "exists":
        why = f"{decision.verdict}: {decision.reason}" if decision.reason else decision.verdict
        raise NotConstructible(f"decide({m},{n},{r},{s}) is {why}")
    params = existence.ROUTES[decision.route](m, n, r, s)
    return BUILDS[decision.route](*params, cache=cache, budget=budget)
