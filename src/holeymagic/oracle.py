"""Independent brute-force enumeration of MR(m,n;r,s) grids.

Shares no code with the constructions: a plain cell-by-cell backtracking
sweep, row-major, trying Empty before values and values in ascending
order, so counts and witness order are reproducible.

The sweep is an explicit-stack loop, so a walk thousands of cells deep
needs no recursion limit.  The unused values sit in one ascending free
list: a placement pops its value and backtracking re-inserts it at the
same position.  A value fits a cell when, on its row and on its column,
what the line still needs minus the value lies between the sums of the k
smallest and of the k largest other free values, k being the line's cells
still to fill after this one.  Leaving the value out changes those sums
only when it is among the k, by trading it for the next smallest (largest)
free value, so the values that fit form one window of the free list: on
entering a cell's values the sweep finds it by bisection, and keeps it
while it resumes the cell, whose state is then the same.

A node is one allowed Empty attempt or one free value examined, counting
the first value too large for its line, which ends that cell's values; a
run stops on node budget + 1.  Values the window skips are charged in one
step, as if each were examined in turn, so node counts are those of a
value-by-value walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Tuple

from .existence import is_int
from .grid import HoleyGrid, MagicSpec

DEFAULT_NODE_BUDGET = 10 ** 9

# Full enumeration is factorial; beyond this many values the caller must
# opt in explicitly.
LARGE_VALUE_COUNT = 14


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    witnesses: Tuple[HoleyGrid, ...]
    exhausted: bool


def enumerate(m: int, n: int, r: int, s: int, witness_cap: int = 4,
              node_budget: int = DEFAULT_NODE_BUDGET, *,
              allow_large: bool = False) -> EnumerationResult:
    """Count every MR(m,n;r,s) grid, keeping up to witness_cap of them.

    Malformed parameters raise ShapeError.  Running out of node budget
    returns the partial count with exhausted=False instead of raising.
    """
    _check_args(m, n, r, s, witness_cap, node_budget, allow_large)
    return _run(m, n, r, s, witness_cap, node_budget, None)


def exists_brute(m: int, n: int, r: int, s: int,
                 node_budget: int = DEFAULT_NODE_BUDGET, *,
                 allow_large: bool = False) -> str:
    """"yes", "no" or "inconclusive", stopping at the first witness."""
    _check_args(m, n, r, s, 1, node_budget, allow_large)
    res = _run(m, n, r, s, 1, node_budget, 1)
    if res.count > 0:
        return "yes"
    return "no" if res.exhausted else "inconclusive"


def _check_args(m, n, r, s, witness_cap, node_budget, allow_large) -> None:
    MagicSpec(m, n, r, s)
    if not is_int(witness_cap) or witness_cap < 0:
        raise ValueError("witness_cap must be an integer >= 0")
    if not is_int(node_budget) or node_budget < 1:
        raise ValueError("node_budget must be a positive integer")
    if m * r > LARGE_VALUE_COUNT and not allow_large:
        raise ValueError(
            f"{m * r} values is beyond the {LARGE_VALUE_COUNT}-value enumeration "
            "limit; only the library call, with allow_large=True, searches past it"
        )


def _run(m, n, r, s, witness_cap, node_budget, stop_at) -> EnumerationResult:
    total = m * r
    row2 = r * (total - 1)
    col2 = s * (total - 1)
    if row2 % 2 or col2 % 2:
        # the magic constant is not an integer, so no grid can exist
        return EnumerationResult(0, (), True)

    cells = m * n
    grid = [[None] * n for _ in range(m)]
    row_left = [r] * m  # values each line still needs
    col_left = [s] * n
    row_of = [idx // n for idx in range(cells)]
    col_of = [idx % n for idx in range(cells)]
    row_room = [n - 1 - j for j in col_of]  # cells after this one in its line
    col_room = [m - 1 - i for i in row_of]
    row_need = [row2 // 2] * m  # the line's constant minus its placed values
    col_need = [col2 // 2] * n
    free = list(range(total))  # unused values, ascending
    taken = [0] * cells  # free-list position of the cell's value, -1 if Empty
    upto = [0] * cells  # end of the cell's window of fitting positions
    nofit = [0] * cells  # nodes its values cost from position 0 when none fits
    witnesses = []
    count = 0
    left = node_budget
    idx, start = 0, -1  # start -1: try Empty first; else the first free position
    while True:
        if idx == cells:
            count += 1
            if len(witnesses) < witness_cap:
                witnesses.append(HoleyGrid.from_rows([row[:] for row in grid]))
            if stop_at is not None and count >= stop_at:
                return EnumerationResult(count, tuple(witnesses), False)
        else:
            i = row_of[idx]
            j = col_of[idx]
            rfl = row_left[i] - 1  # cells the line still needs after this one
            cfl = col_left[j] - 1
            if start < 0:
                start = 0
                if row_room[idx] > rfl and col_room[idx] > cfl:
                    left -= 1
                    if left < 0:
                        return EnumerationResult(count, tuple(witnesses), False)
                    taken[idx] = -1
                    idx, start = idx + 1, -1
                    continue
            if rfl >= 0 and cfl >= 0:
                if start:
                    # resumed after its last value: the window still holds
                    at, end = start, upto[idx]
                else:
                    rneed = row_need[i]
                    cneed = col_need[j]
                    nfree = len(free)
                    stop = bisect_right(free, rneed if rneed < cneed else cneed)
                    # the values up to stop are examined, plus the first value
                    # too large for the row or column
                    nofit[idx] = stop + (stop < nfree)
                    # Position p fits a line with k cells after this one iff
                    # free[max(p, k)] <= most and free[min(p, nfree - 1 - k)]
                    # >= least, most and least being the line's need less the
                    # k smallest and the k largest free values: leaving out
                    # one of those k trades it for free[k] (free[nfree-1-k]).
                    # So the fitting positions form one window [at, end).
                    if rfl == 0:
                        # the row's last cell takes exactly what it needs
                        at = bisect_left(free, rneed, 0, stop)
                        end = at + 1 if at < stop and free[at] == rneed else at
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
                    upto[idx] = end
                if at < end:
                    cost = at - start + 1
                else:
                    cost = nofit[idx] - start
                if cost > left:
                    return EnumerationResult(count, tuple(witnesses), False)
                left -= cost
                if at < end:
                    v = free.pop(at)
                    grid[i][j] = v
                    row_left[i] = rfl
                    col_left[j] = cfl
                    row_need[i] -= v
                    col_need[j] -= v
                    taken[idx] = at
                    idx, start = idx + 1, -1
                    continue
        # backtrack: undo the previous cell and resume it after its choice
        if idx == 0:
            return EnumerationResult(count, tuple(witnesses), True)
        idx -= 1
        pos = taken[idx]
        if pos < 0:
            start = 0
            continue
        i = row_of[idx]
        j = col_of[idx]
        v = grid[i][j]
        grid[i][j] = None
        free.insert(pos, v)
        row_left[i] += 1
        col_left[j] += 1
        row_need[i] += v
        col_need[j] += v
        start = pos + 1
