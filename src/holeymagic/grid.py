"""Holey grids, magic verification and MRX text I/O.

A holey grid is an m x n array whose cells are either empty or hold a
nonnegative integer.  Every other module produces or consumes these.
Every HoleyGrid checks its cells once, when it is built; above and beside
take bare cell blocks (kotzig.lift's copies) and build only the joined
grid, so the blocks' cells are checked there, once.  verify's row and
column targets are integers, or -1 where the paper's constant is not one.
parse, serialize and verify work a row at a time, with the per-cell work
in comprehensions, str.join, tuple.count and sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Tuple

from .errors import ParseError, ShapeError
from .existence import is_int

Cell = Optional[int]
Cells = Tuple[Tuple[Cell, ...], ...]

EMPTY_TOKEN = "."
_VALUE_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")
# A row of tokens, each "." or a value, one space apart.  Python 3.10 has
# no possessive quantifiers; a failed match backtracks only into each
# token's digit run, whose every shorter split meets a digit, not a space.
_ROW_RE = re.compile(r"(?:\.|0|[1-9][0-9]*)(?: (?:\.|0|[1-9][0-9]*))*")


@dataclass(frozen=True)
class HoleyGrid:
    """Immutable rectangular array of optional nonnegative integers.

    Cell addressing is 0-based (row, col).  `cells` is a tuple of row
    tuples; `None` marks an empty cell.
    """

    rows: int
    cols: int
    cells: Cells

    def __post_init__(self):
        if not (is_int(self.rows) and is_int(self.cols)):
            raise ValueError(f"grid dimensions must be integers, got {self.rows!r}x{self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        cells = tuple(map(tuple, self.cells))  # rows given as lists still hash and compare
        object.__setattr__(self, "cells", cells)
        if len(cells) != self.rows or set(map(len, cells)) != {self.cols}:
            raise ShapeError("cells do not match the declared dimensions")
        subclassed = False
        for row in cells:
            for v in row:
                if v is None or type(v) is int and v >= 0:
                    continue
                if not is_int(v) or v < 0:
                    raise ValueError(f"cell values must be nonnegative integers, got {v!r}")
                subclassed = True
        if subclassed:  # an int subclass such as IntEnum may print as a name
            object.__setattr__(self, "cells", tuple(
                tuple(None if v is None else int(v) for v in row) for row in cells))

    @classmethod
    def from_rows(cls, rows_data) -> "HoleyGrid":
        """Build a grid from any iterable of row iterables."""
        cells = tuple(map(tuple, rows_data))
        if not cells:
            raise ShapeError("grid must have at least one row")
        return cls(len(cells), len(cells[0]), cells)

    def filled(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (row, col, value) for every filled cell in row-major order."""
        for i, row in enumerate(self.cells):
            for j, v in enumerate(row):
                if v is not None:
                    yield i, j, v


@dataclass(frozen=True)
class MagicSpec:
    """Shape and fill counts (m, n, r, s): m x n grid, r filled cells per
    row, s per column.  Requires m*r = n*s, 1 <= r <= n and 1 <= s <= m."""

    m: int
    n: int
    r: int
    s: int

    def __post_init__(self):
        if not all(map(is_int, (self.m, self.n, self.r, self.s))):
            raise ValueError(f"spec parameters must be integers: {self}")
        if min(self.m, self.n, self.r, self.s) < 1:
            raise ShapeError(f"spec parameters must be positive: {self}")
        if self.m * self.r != self.n * self.s:
            raise ShapeError(f"m*r must equal n*s: {self.m}*{self.r} != {self.n}*{self.s}")
        if self.r > self.n or self.s > self.m:
            raise ShapeError(f"fill counts exceed dimensions: {self}")

    @property
    def total_cells(self) -> int:
        return self.m * self.r


@dataclass(frozen=True)
class Violation:
    """One failed magic axiom; `index` is the offending row or column when
    the axiom is per-row or per-column."""

    kind: str
    index: Optional[int] = None

    def __str__(self):
        if self.index is None:
            return self.kind
        return f"{self.kind}({self.index})"


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    row_constant: Optional[int]
    col_constant: Optional[int]
    failures: Tuple[Violation, ...]


def _tallies(lines, length: int):
    """The filled-cell counts and the sums of lines of the given length."""
    return zip(*[(length - line.count(None), sum(filter(None, line))) for line in lines])


def verify(grid: HoleyGrid, spec: MagicSpec) -> VerificationReport:
    """Check every magic axiom of grid against spec.

    ok requires: r filled cells per row, s per column, filled values exactly
    {0..mr-1} each once, every row summing to r(mr-1)/2 and every column
    to s(mr-1)/2.  The values total mr(mr-1)/2, so a constant that is not
    an integer fails every line.  row_constant/col_constant are reported
    whenever the observed sums agree with each other, even on a failing
    grid.
    """
    if (grid.rows, grid.cols) != (spec.m, spec.n):
        raise ShapeError(
            f"grid is {grid.rows}x{grid.cols} but spec wants {spec.m}x{spec.n}"
        )
    # twice each constant; an odd one is no integer, and -1 is no sum
    row2, col2 = spec.r * (spec.total_cells - 1), spec.s * (spec.total_cells - 1)
    row_target = -1 if row2 % 2 else row2 // 2
    col_target = -1 if col2 % 2 else col2 // 2
    cells = grid.cells
    row_fill, row_sums = _tallies(cells, spec.n)
    col_fill, col_sums = _tallies(zip(*cells), spec.m)  # one column alive at a time
    values = [v for row in cells for v in row if v is not None]

    failures = [Violation("FillCountRow", i) for i, c in enumerate(row_fill) if c != spec.r]
    failures += [Violation("FillCountCol", j) for j, c in enumerate(col_fill) if c != spec.s]
    if sorted(values) != list(range(spec.total_cells)):
        failures.append(Violation("ValueMultiset"))
    failures += [Violation("RowSum", i) for i, total in enumerate(row_sums) if total != row_target]
    failures += [Violation("ColSum", j) for j, total in enumerate(col_sums) if total != col_target]

    row_constant = row_sums[0] if len(set(row_sums)) == 1 else None
    col_constant = col_sums[0] if len(set(col_sums)) == 1 else None
    return VerificationReport(not failures, row_constant, col_constant, tuple(failures))


def above(blocks) -> HoleyGrid:
    """Cell blocks (sequences of rows) of one width stacked top to bottom."""
    return HoleyGrid.from_rows(chain.from_iterable(blocks))


def beside(blocks) -> HoleyGrid:
    """Cell blocks (sequences of rows) of one height set side by side,
    left to right."""
    heights = sorted({len(b) for b in blocks})
    if len(heights) > 1:
        raise ShapeError(f"cannot set blocks of heights {heights} side by side")
    return HoleyGrid.from_rows(chain.from_iterable(rows) for rows in zip(*blocks))


def serialize(grid: HoleyGrid) -> str:
    """Render the grid in MRX text form (see parse for the grammar)."""
    lines = [f"{grid.rows} {grid.cols}"]
    lines += [" ".join([EMPTY_TOKEN if v is None else str(v) for v in row]) for row in grid.cells]
    return "\n".join(lines) + "\n"


def parse(text: str) -> HoleyGrid:
    """Parse MRX text: "<rows> <cols>" header, then one line per row of
    space-separated tokens, each "." or a canonical nonnegative decimal.
    Exactly one space between tokens, trailing newline required.

    Raises ParseError carrying the offending 1-based line number.
    """
    if not text.endswith("\n"):
        raise ParseError("missing trailing newline", max(1, text.count("\n") + 1))
    lines = text.split("\n")[:-1]

    header = lines[0].split(" ")
    if len(header) != 2 or not all(_VALUE_RE.match(tok) for tok in header):
        raise ParseError(f"bad header {lines[0]!r}", 1)
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise ParseError("dimensions must be positive", 1)
    if len(lines) < rows + 1:
        raise ParseError(f"expected {rows} data lines, got {len(lines) - 1}", len(lines) + 1)
    if len(lines) > rows + 1:
        raise ParseError("content after last row", rows + 2)

    cells = []
    for lineno, line in enumerate(lines[1:], 2):
        tokens = line.split(" ")
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} tokens, got {len(tokens)}", lineno)
        if not _ROW_RE.fullmatch(line):
            bad = next(tok for tok in tokens if tok != EMPTY_TOKEN and not _VALUE_RE.match(tok))
            raise ParseError(f"bad token {bad!r}", lineno)
        cells.append(tuple([None if tok == EMPTY_TOKEN else int(tok) for tok in tokens]))
    return HoleyGrid(rows, cols, tuple(cells))
