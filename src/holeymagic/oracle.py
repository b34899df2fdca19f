"""Independent brute-force enumeration of MR(m,n;r,s) grids.

Shares no code with the constructions: a plain cell-by-cell backtracking
sweep, row-major, trying Empty before values and values in ascending
order, so counts and witness order are reproducible.  The sweep runs on
the orientation with at least as many rows as columns: a row-major walk
of a wide grid fills a long row before any column closes.

Permuting the rows or the columns of an MR(m,n;r,s) gives another one,
and no permutation but the identity fixes a grid: every line holds a
value and all values differ.  So the sweep walks one canonical grid per
orbit of the m!*n! permutations, and each grid it finds counts m!*n!:
counts are multiples of m!*n!, and the witnesses are one per orbit.  A
grid is canonical when its rows are sorted by their smallest value and its
columns by the row that first fills them and the value there.  The sweep
keeps it so with two rules.  Rows: each row holds the smallest value free
when the row starts; its last value must be that one unless an earlier
value was.  Columns: the columns holding a value are a prefix, so a value
may open only the next column, and one that opens it next to a column the
same row opened must exceed the value there.

The sweep is an explicit-stack loop, so a walk thousands of cells deep
needs no recursion limit; each of its steps makes one decision.  The
unused values sit in one ascending free list: a placement pops its value,
and backtracking re-inserts it at the same position or, when the cell
resumes, swaps it for the value after it.  A value fits a cell when, on
its row and on its column, what the line still needs minus the value lies
between the sums of the k smallest and of the k largest other free
values, k being the line's cells still to fill after this one.  Leaving
the value out changes those sums only when it is among the k, by trading
it for the next smallest (largest) free value, so the values that fit
form one window of the free list: on entering a cell's values the sweep
finds it by bisection, and the rules only narrow it.  Backtracking undoes
cells until one takes a new choice.  A cell holding a value resumes in
that same step with the next position of its window, which the undo
leaves as it was; an Empty cell starts its values afresh.

A node is one allowed Empty attempt or one free value examined, counting
the first value too large for its line, which ends that cell's values; a
run stops on node budget + 1.  A cell past the next column to open
examines no value.  Values the window skips, before it or after it once
it is used up, are charged in one step, as if each were examined in turn,
so node counts are those of a value-by-value walk with the two rules.
The node budget is a run's only bound; the default ends a run within
seconds and exhausts every shape with mr <= 19.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import factorial
from typing import Tuple

from .existence import is_int
from .grid import HoleyGrid, MagicSpec

DEFAULT_NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class EnumerationResult:
    """count grids found, up to a cap of them kept as witnesses, and whether
    the walk exhausted the shape; when it did not, count is a lower bound.
    A wide shape's witnesses are transposes of the tall walk's canonical
    grids."""

    count: int
    witnesses: Tuple[HoleyGrid, ...]
    exhausted: bool


def enumerate(m: int, n: int, r: int, s: int, witness_cap: int = 4,
              node_budget: int = DEFAULT_NODE_BUDGET, *,
              allow_large: bool = False) -> EnumerationResult:
    """Count every MR(m,n;r,s) grid, keeping up to witness_cap of them.

    The count is m!*n! times the number of canonical grids, one per orbit
    of the row and column permutations, and the witnesses are canonical
    grids, so no two are permutations of each other.  A wide shape (n > m)
    is walked as its tall transpose MR(n,m;s,r), which has the same count:
    node_budget counts the tall walk's nodes, and the witnesses are the
    transposes of canonical tall grids.  Malformed parameters raise
    ShapeError.  Running out of node budget returns the partial count with
    exhausted=False instead of raising.  allow_large is ignored.
    """
    _check_args(m, n, r, s, witness_cap, node_budget)
    return _tall_run(m, n, r, s, witness_cap, node_budget, None)


def exists_brute(m: int, n: int, r: int, s: int,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> str:
    """"yes", "no" or "inconclusive", stopping at the first witness."""
    _check_args(m, n, r, s, 1, node_budget)
    res = _tall_run(m, n, r, s, 1, node_budget, 1)
    if res.count > 0:
        return "yes"
    return "no" if res.exhausted else "inconclusive"


def _check_args(m, n, r, s, witness_cap, node_budget) -> None:
    MagicSpec(m, n, r, s)
    if not is_int(witness_cap) or witness_cap < 0:
        raise ValueError("witness_cap must be an integer >= 0")
    if not is_int(node_budget) or node_budget < 1:
        raise ValueError("node_budget must be a positive integer")


def _tall_run(m, n, r, s, witness_cap, node_budget, stop_at) -> EnumerationResult:
    """_run on the orientation with n <= m, witnesses transposed back."""
    if n <= m:
        return _run(m, n, r, s, witness_cap, node_budget, stop_at)
    res = _run(n, m, s, r, witness_cap, node_budget, stop_at)
    return EnumerationResult(res.count, tuple(
        HoleyGrid.from_rows(zip(*w.cells)) for w in res.witnesses), res.exhausted)


def _run(m, n, r, s, witness_cap, node_budget, stop_at) -> EnumerationResult:
    total = m * r
    row2 = r * (total - 1)
    col2 = s * (total - 1)
    if row2 % 2 or col2 % 2:
        # the magic constant is not an integer, so no grid can exist
        return EnumerationResult(0, (), True)

    orbit = factorial(m) * factorial(n)  # grids per canonical grid
    cells = m * n
    # per cell: its row and column, and the cells after it in each
    cell_at = [(idx // n, idx % n, n - 1 - idx % n, m - 1 - idx // n)
               for idx in range(cells)]
    row_left = [r] * m  # values each line still needs
    col_left = [s] * n
    row_need = [row2 // 2] * m  # the line's constant minus its placed values
    col_need = [col2 // 2] * n
    row_low = [0] * m  # the smallest value free when the row started
    opened = 0  # columns holding a value: always 0..opened-1
    free = list(range(total))  # unused values, ascending
    placed = [0] * cells  # the cell's value, when it holds one
    taken = [0] * cells  # free-list position of the cell's value, -1 if Empty
    upto = [0] * cells  # end of the cell's window of fitting positions
    nofit = [0] * cells  # nodes its values cost from position 0 when none fits
    witnesses = []
    count = 0
    left = node_budget
    idx, fresh = 0, True  # fresh: the cell tries Empty before its values
    while True:
        if idx == cells:
            count += orbit
            if len(witnesses) < witness_cap:
                witnesses.append(HoleyGrid.from_rows(
                    [placed[k] if taken[k] >= 0 else None for k in range(a, a + n)]
                    for a in range(0, cells, n)))
            if stop_at is not None and count >= stop_at:
                return EnumerationResult(count, tuple(witnesses), False)
        else:
            i, j, row_room, col_room = cell_at[idx]
            rfl = row_left[i] - 1  # cells the line still needs after this one
            cfl = col_left[j] - 1
            if fresh:
                if not j:
                    row_low[i] = free[0]
                if row_room > rfl and col_room > cfl:
                    if not left:
                        return EnumerationResult(count, tuple(witnesses), False)
                    left -= 1
                    taken[idx] = -1
                    idx += 1
                    continue
            if rfl >= 0 and cfl >= 0 and j <= opened:
                rneed = row_need[i]
                cneed = col_need[j]
                nfree = len(free)
                stop = bisect_right(free, rneed if rneed < cneed else cneed)
                # Position p fits a line with k cells after this one iff
                # free[max(p, k)] <= most and free[min(p, nfree - 1 - k)]
                # >= least, most and least being the line's need less the
                # k smallest and the k largest free values: leaving out
                # one of those k trades it for free[k] (free[nfree-1-k]).
                # So the fitting positions form one window [at, end).
                if rfl == 0:
                    # the row's last cell takes exactly what it needs, which
                    # must be the row's smallest value while that is free
                    at = bisect_left(free, rneed, 0, stop)
                    end = at + 1 if at < stop and free[at] == rneed and (
                        not at or free[0] != row_low[i]) else at
                else:
                    if rfl == 1:
                        most = rneed - free[0]
                        least = rneed - free[-1]
                    else:
                        most = rneed - sum(free[:rfl])
                        least = rneed - sum(free[nfree - rfl:])
                    # Rows fill one at a time, so free[rfl] <= most and
                    # free[nfree - 1 - rfl] >= least hold unchecked: the
                    # row's previous value was placed only if they held for
                    # the values it left, and before the row's first value
                    # the free values average its constant over r cells.
                    at = bisect_left(free, least, 0, stop)
                    end = bisect_right(free, most, at, stop)
                if at < end:
                    if cfl == 0:
                        at = bisect_left(free, cneed, at, end)
                        end = at + 1 if at < end and free[at] == cneed else at
                    else:
                        if cfl == 1:
                            most = cneed - free[0]
                            least = cneed - free[-1]
                        else:
                            most = cneed - sum(free[:cfl])
                            least = cneed - sum(free[nfree - cfl:])
                        if free[cfl] > most or free[nfree - 1 - cfl] < least:
                            end = at
                        else:
                            at = bisect_left(free, least, at, end)
                            end = bisect_right(free, most, at, end)
                if (at < end and j == opened and j and taken[idx - 1] >= 0
                        and col_left[j - 1] == s - 1):
                    # this row opened the column before: open this one with
                    # a larger value
                    at = bisect_right(free, placed[idx - 1], at, end)
                # the values up to stop are examined, plus the first value
                # too large for the row or column
                cost = stop + (stop < nfree)
                if at < end:
                    # the values before at are examined and skipped
                    if at >= left:
                        return EnumerationResult(count, tuple(witnesses), False)
                    left -= at + 1
                    upto[idx] = end
                    nofit[idx] = cost
                    v = free.pop(at)
                    placed[idx] = v
                    row_left[i] = rfl
                    col_left[j] = cfl
                    row_need[i] = rneed - v
                    col_need[j] = cneed - v
                    taken[idx] = at
                    opened += j == opened
                    idx += 1
                    fresh = True
                    continue
                if cost > left:
                    return EnumerationResult(count, tuple(witnesses), False)
                left -= cost
        # Backtrack: undo cells until one takes a new choice.  A cell holding
        # a value resumes in place with the next position of its window,
        # which the undo leaves as it was; an Empty cell starts its values.
        while True:
            if idx == 0:
                return EnumerationResult(count, tuple(witnesses), True)
            idx -= 1
            pos = taken[idx]
            if pos < 0:
                fresh = False
                break
            i, j, row_room, col_room = cell_at[idx]
            v = placed[idx]
            if pos + 1 < upto[idx]:
                if not left:
                    return EnumerationResult(count, tuple(witnesses), False)
                left -= 1
                # the next position holds the value after v, which the
                # removal of v moved to pos: swap the two
                w = free[pos]
                free[pos] = v
                row_need[i] += v - w
                col_need[j] += v - w
                placed[idx] = w
                taken[idx] = pos + 1
                idx += 1
                fresh = True
                break
            # the window is used up: charge the rest of the cell's values
            cost = nofit[idx] - pos - 1
            if cost > left:
                return EnumerationResult(count, tuple(witnesses), False)
            left -= cost
            free.insert(pos, v)
            row_left[i] += 1
            col_left[j] += 1
            opened -= col_left[j] == s  # the column is empty again
            row_need[i] += v
            col_need[j] += v
