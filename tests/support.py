"""Shared test helpers: a from-scratch magic checker, grid mutators and the
reference search kernel.

naive_check deliberately reimplements the magic axioms with plain loops
and doubled integer sums so it shares nothing with the library verifier;
the two are compared for agreement on thousands of mutated grids.
reference_search_assignment is the search kernel as it was before
candidates were windowed: it tries and charges one candidate at a time,
and the windowed kernel must match it node for node.
"""

import random
from bisect import bisect_right
from typing import Dict, List

from holeymagic import HoleyGrid, SearchBudgetExceeded


def naive_check(grid: HoleyGrid, m: int, n: int, r: int, s: int) -> bool:
    """Independent re-derivation of the magic property.

    Values must be exactly 0..mr-1, each row holds r of them summing to
    r(mr-1)/2, each column s of them summing to s(mr-1)/2.  Doubling both
    sides keeps the arithmetic in integers.
    """
    if grid.rows != m or grid.cols != n:
        return False
    total = m * r
    seen = []
    for i in range(m):
        vals = [v for v in grid.cells[i] if v is not None]
        if len(vals) != r:
            return False
        if 2 * sum(vals) != r * (total - 1):
            return False
        seen.extend(vals)
    for j in range(n):
        vals = [grid.cells[i][j] for i in range(m) if grid.cells[i][j] is not None]
        if len(vals) != s:
            return False
        if 2 * sum(vals) != s * (total - 1):
            return False
    return sorted(seen) == list(range(total))


def random_grid(rng: random.Random) -> HoleyGrid:
    """Arbitrary holey grid for serialization round-trips.

    Dimensions, fill pattern and values are unconstrained; occasional huge
    values exercise multi-digit tokens.
    """
    rows = rng.randint(1, 12)
    cols = rng.randint(1, 12)
    cells = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            roll = rng.random()
            if roll < 0.35:
                row.append(None)
            elif roll < 0.95:
                row.append(rng.randint(0, 999))
            else:
                row.append(rng.randint(10**9, 10**12))
        cells.append(tuple(row))
    return HoleyGrid(rows, cols, tuple(cells))


def mutate(grid: HoleyGrid, rng: random.Random) -> HoleyGrid:
    """Return a copy of grid with one random local edit.

    Edits cover the failure modes the verifier must catch: a bumped value,
    two swapped values, a value moved into a hole, a blanked cell and a
    duplicated value.  The edit may cancel out (a swap of equal-sum pairs,
    say); tests only require the two verifiers to agree on the result.
    """
    cells = [list(row) for row in grid.cells]
    filled = [(i, j) for i, j, _ in grid.filled()]
    holes = [
        (i, j)
        for i in range(grid.rows)
        for j in range(grid.cols)
        if cells[i][j] is None
    ]
    kinds = ["bump"]
    if len(filled) >= 2:
        kinds += ["swap", "duplicate"]
    if filled and holes:
        kinds += ["move", "blank", "fill"]
    kind = rng.choice(kinds)

    if kind == "bump":
        i, j = rng.choice(filled)
        cells[i][j] += rng.choice([1, 2, 5])
    elif kind == "swap":
        (a, b), (c, d) = rng.sample(filled, 2)
        cells[a][b], cells[c][d] = cells[c][d], cells[a][b]
    elif kind == "duplicate":
        (a, b), (c, d) = rng.sample(filled, 2)
        cells[a][b] = cells[c][d]
    elif kind == "move":
        i, j = rng.choice(filled)
        p, q = rng.choice(holes)
        cells[p][q] = cells[i][j]
        cells[i][j] = None
    elif kind == "blank":
        i, j = rng.choice(filled)
        cells[i][j] = None
    else:
        p, q = rng.choice(holes)
        i, j = rng.choice(filled)
        cells[p][q] = cells[i][j]

    return HoleyGrid(grid.rows, grid.cols, tuple(tuple(row) for row in cells))


def reference_search_assignment(cell_domain, lines, domains, budget, precedes=()):
    """First exact assignment of distinct values to cells, or None.

    Cells are filled in index order.  cell_domain: domain index of each
    cell; lines: list of (target, cell indices in fill order); domains:
    list of ascending value tuples with exact counts (each domain holds as
    many values as cells).  precedes: (earlier, later) cell pairs whose
    values must increase, the earlier cell coming first in fill order; used
    to break row/column permutation symmetry.

    Each domain keeps its unused values as one ascending free list: a
    placement pops the value at its position and backtracking re-inserts
    it there, so a line's bounds are sums of the k smallest and k largest
    free values (plain slices), and a cell's candidates are the free values
    from just above its precedence floor up to the smallest remaining line
    target.  The search is an explicit-stack loop, so its depth is not
    limited by the interpreter's recursion limit.  Charges one budget unit
    per attempted placement and raises SearchBudgetExceeded on the attempt
    after the budget runs dry.
    """
    ncells = len(cell_domain)
    gap = [t for t, _ in lines]  # a line's target minus its placed values
    # per cell: (line, (domain, count) pairs of that line's later cells)
    checks: List[List[tuple]] = [[] for _ in range(ncells)]
    for L, (_, seq) in enumerate(lines):
        counts: Dict[int, int] = {}
        for c in reversed(seq):
            checks[c].append((L, tuple(counts.items())))
            counts[cell_domain[c]] = counts.get(cell_domain[c], 0) + 1
    prec_of: List[List[int]] = [[] for _ in range(ncells)]
    for earlier, later in precedes:
        prec_of[later].append(earlier)

    free = [list(d) for d in domains]
    assignment = [0] * ncells
    pos_of = [0] * ncells  # free-list position each placed value came from
    left = budget.left
    idx, pos = 0, None  # pos None: cell idx is entered afresh, not resumed
    while idx < ncells:
        f = free[cell_domain[idx]]
        mine = checks[idx]
        cap = min(gap[L] for L, _ in mine)
        if pos is None:
            pos = bisect_right(f, max((assignment[p] for p in prec_of[idx]), default=-1))
        for pos in range(pos, bisect_right(f, cap)):
            left -= 1
            if left < 0:
                budget.left = left
                raise SearchBudgetExceeded(budget.label, budget.total - left)
            v = f.pop(pos)
            for L, rest in mine:
                need = gap[L] - v
                if not rest:
                    if need:
                        break
                    continue
                lo = hi = 0
                for d, k in rest:
                    lo += free[d][0] if k == 1 else sum(free[d][:k])
                if need < lo:
                    break
                for d, k in rest:
                    hi += free[d][-1] if k == 1 else sum(free[d][-k:])
                if need > hi:
                    break
            else:
                break  # every line of the cell can still reach its target
            f.insert(pos, v)
        else:
            # candidates exhausted: take back the previous cell's value and
            # resume that cell after it
            if idx == 0:
                budget.left = left
                return None
            idx -= 1
            v, pos = assignment[idx], pos_of[idx]
            for L, _ in checks[idx]:
                gap[L] += v
            free[cell_domain[idx]].insert(pos, v)
            pos += 1
            continue
        for L, _ in mine:
            gap[L] -= v
        assignment[idx], pos_of[idx] = v, pos
        idx, pos = idx + 1, None
    budget.left = left
    return assignment
