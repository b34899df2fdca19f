"""Independent brute-force enumeration of MR(m,n;r,s) grids.

Shares no code with the constructions: a plain cell-by-cell backtracking
sweep, row-major, trying Empty before values and values in ascending
order, so counts and witness order are reproducible.

The sweep is an explicit-stack loop, so a walk thousands of cells deep
needs no recursion limit.  The unused values sit in one ascending free
list: a placement pops its value, backtracking re-inserts it at the same
position, and a line's bounds are the sums of the k smallest and k largest
free values other than the candidate.  A node is one allowed Empty attempt
or one free value examined, counting the first value too large for its
line, which ends that cell's candidates; a run stops on node budget + 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Tuple

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
    MagicSpec(m, n, r, s)
    if witness_cap < 0:
        raise ValueError("witness_cap must be >= 0")
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    if m * r > LARGE_VALUE_COUNT and not allow_large:
        raise ValueError(
            f"{m * r} values is beyond the default enumeration range; "
            "pass allow_large=True to search anyway"
        )
    return _run(m, n, r, s, witness_cap, node_budget, None)


def exists_brute(m: int, n: int, r: int, s: int,
                 node_budget: int = DEFAULT_NODE_BUDGET, *,
                 allow_large: bool = False) -> str:
    """"yes", "no" or "inconclusive", stopping at the first witness."""
    MagicSpec(m, n, r, s)
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    if m * r > LARGE_VALUE_COUNT and not allow_large:
        raise ValueError(
            f"{m * r} values is beyond the default enumeration range; "
            "pass allow_large=True to search anyway"
        )
    res = _run(m, n, r, s, 1, node_budget, 1)
    if res.count > 0:
        return "yes"
    return "no" if res.exhausted else "inconclusive"


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
                rneed = row_need[i]
                cneed = col_need[j]
                nfree = len(free)
                stop = bisect_right(free, rneed if rneed < cneed else cneed)
                # positions first..last-1 are examined one by one; the rest
                # of start..stop-1 cannot fit and are only charged
                first, last = start, stop
                if rfl == 0 or cfl == 0:
                    # a line's last cell can only take what the line still needs
                    want = rneed if rfl == 0 else cneed
                    first = bisect_left(free, want, start, stop)
                    last = first + 1 if first < stop and free[first] == want else first
                left -= first - start  # a shortfall is caught below
                if first < last:
                    # A candidate v at position pos fits its row when the rfl
                    # smallest and largest other free values can make up
                    # rneed - v; leaving v out shifts a slice by one when v
                    # falls inside it.  Likewise for its column.
                    r_lo = sum(free[:rfl])
                    r_lo1 = r_lo + free[rfl]
                    r_hi = sum(free[nfree - rfl:])
                    r_hi1 = r_hi + free[nfree - rfl - 1]
                    c_lo = sum(free[:cfl])
                    c_lo1 = c_lo + free[cfl]
                    c_hi = sum(free[nfree - cfl:])
                    c_hi1 = c_hi + free[nfree - cfl - 1]
                for pos in range(first, last):
                    left -= 1
                    if left < 0:
                        return EnumerationResult(count, tuple(witnesses), False)
                    v = free[pos]
                    if ((r_lo1 if pos < rfl else r_lo + v) <= rneed
                            <= (r_hi1 if pos >= nfree - rfl else r_hi + v)
                            and (c_lo1 if pos < cfl else c_lo + v) <= cneed
                            <= (c_hi1 if pos >= nfree - cfl else c_hi + v)):
                        break
                else:
                    # nothing fits; the first value too large for the row or column
                    # is examined too
                    left -= stop - last + (stop < nfree)
                    if left < 0:
                        return EnumerationResult(count, tuple(witnesses), False)
                    pos = -1
                if pos >= 0:
                    del free[pos]
                    grid[i][j] = v
                    row_left[i] -= 1
                    col_left[j] -= 1
                    row_need[i] = rneed - v
                    col_need[j] = cneed - v
                    taken[idx] = pos
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
