"""Kotzig arrays: s x k arrays whose rows are permutations of 0..k-1 and
whose columns all sum to (k-1)s/2.

They exist exactly when s is even or k is odd (with the one-column case
degenerate), and the constructions here are the canonical ones: an
identity/reversal pair of rows, a three-row block for odd k, and vertical
stacking of those blocks.  lift() routes shifted copies of a magic grid
through one; every construction that multiplies a grid goes through it,
and gets back the copies' cells, which it joins or wraps as grids.
lift() zips per-cell iterators over the copies when the copies outnumber
the base's columns, and otherwise loops over the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Callable, List, Tuple

from .errors import ParityError
from .existence import require_positive_ints
from .grid import Cells, HoleyGrid


@dataclass(frozen=True)
class KotzigArray:
    s: int
    k: int
    entries: Tuple[Tuple[int, ...], ...]


def base_pair(k: int) -> KotzigArray:
    """2 x k block: identity permutation over its reversal."""
    require_positive_ints("k", k)
    top = tuple(range(k))
    return KotzigArray(2, k, (top, top[::-1]))


def base_triple(k: int) -> KotzigArray:
    """3 x k block for odd k; every column sums to 3(k-1)/2."""
    require_positive_ints("k", k)
    if k % 2 == 0:
        raise ParityError(f"three-row block needs odd k, got {k}")
    h = (k - 1) // 2
    row0 = tuple(range(k))
    row1 = tuple(h + j if j <= h else j - h - 1 for j in range(k))
    row2 = tuple(k - 1 - 2 * j if j <= h else 2 * k - 1 - 2 * j for j in range(k))
    return KotzigArray(3, k, (row0, row1, row2))


def kotzig(s: int, k: int) -> KotzigArray:
    """Canonical s x k Kotzig array.

    Even s stacks s/2 copies of base_pair(k).  Odd s needs odd k and puts
    one base_triple(k) on top of (s-3)/2 copies of base_pair(k); s = 1
    takes the triple's first row.  A single row only works over a single
    symbol, and a single column is all zeros.
    """
    require_positive_ints("s and k", s, k)
    if s % 2 == 1 and k % 2 == 0:
        raise ParityError(f"no Kotzig array for odd s={s} and even k={k}")
    if s == 1 and k > 1:
        # a lone permutation row cannot have constant column sums for k > 1
        raise ParityError(f"no 1x{k} Kotzig array exists for k > 1")
    rows = []
    if s % 2 == 1:
        rows.extend(base_triple(k).entries[:s])
    pair = base_pair(k).entries
    while len(rows) < s:
        rows.extend(pair)
    return KotzigArray(s, k, tuple(rows))


def lift(base: HoleyGrid, class_of: Callable[[int, int], int],
         K: KotzigArray) -> List[Cells]:
    """The cells of the k copies of a base holding 0..N-1 in its N filled
    cells, k being the number of columns of K.entries (not K.k): copy t
    adds N * K[class_of(i, j)][t] to the value in cell (i, j) and keeps
    the base's holes.
    Each copy is a tuple of row tuples, not yet a HoleyGrid: callers join
    the copies with grid.above or grid.beside, or wrap each one, and only
    the grids they build check the cells.

    Every row of K permutes 0..k-1, so the copies jointly hold 0..kN-1 once
    each.  Every column of K has the same sum, so when each class meets
    every row (column) of the base equally often, all copies' rows
    (columns) gain the same amount.  Copies stacked above one another only
    need that for rows: a column of the stack gains N times a row sum of K,
    (k-1)k/2, for each of its base cells, whatever their classes; side by
    side, the same holds with rows and columns swapped.

    When the copies outnumber the base's columns, each base cell gets one
    iterator over its value in every copy, and zip makes from them a row
    of every copy, then every copy from its rows, so the work per cell and
    copy runs inside builtins.  Otherwise a comprehension step per cell
    and copy costs less than an iterator per cell, so it loops over the
    copies.
    """
    n = sum(len(row) - row.count(None) for row in base.cells)
    k = min(map(len, K.entries), default=0)  # as many copies as zip(*K.entries) gives
    if k > base.cols:
        shifts = [[n * x for x in row[:k]] for row in K.entries]
        hole = (None,) * k
        return list(zip(*[
            zip(*[hole if v is None else map(add, repeat(v), shifts[class_of(i, j)])
                  for j, v in enumerate(row)])
            for i, row in enumerate(base.cells)]))
    classes = [[None if v is None else class_of(i, j) for j, v in enumerate(row)]
               for i, row in enumerate(base.cells)]
    rows = list(zip(base.cells, classes))
    copies = []
    for column in zip(*K.entries):  # K[class][t] for every class, copy t
        shift = [n * x for x in column]
        copies.append(tuple([
            tuple([None if v is None else v + shift[c] for v, c in zip(row, crow)])
            for row, crow in rows]))
    return copies
