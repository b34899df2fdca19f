"""Shared test helpers: the well-shaped (m, n, r, s) tuples, a
from-scratch magic checker, a diagonal-run reader, grid mutators and the
reference search kernels.

naive_check deliberately reimplements the magic axioms with plain loops
and doubled integer sums so it shares nothing with the library verifier;
the two are compared for agreement on thousands of mutated grids.
reference_search_assignment is the search kernel as it was before
candidates were windowed: it tries and charges one candidate at a time,
and the windowed kernel must match it node for node.
reference_enumerate is the oracle's sweep as it was before its values
were windowed the same way and before it walked one grid per orbit of the
row and column permutations; the oracle's exhausted counts must equal its
counts.  reference_canonical_enumerate walks one grid per orbit value by
value, recursively, testing each value's fit from plain sums, and the
oracle must match it at every node budget.
reference_parse and reference_verify are grid.parse and grid.verify as
they were before they worked a row at a time (a token and a cell at a
time); the row-wise versions must match their grids, errors and reports
exactly.  reference_verify compares doubled sums with doubled constants,
so it takes none of verify's arithmetic.
reference_lift is kotzig.lift as it was before it zipped per-cell
iterators for many copies: a comprehension over every cell of every copy;
lift must match its copies cell for cell and by type.
"""

import random
import re
from bisect import bisect_left, bisect_right
from math import factorial
from typing import Dict, List

from holeymagic import HoleyGrid, ParseError, ShapeError
from holeymagic.grid import (
    EMPTY_TOKEN,
    MagicSpec,
    VerificationReport,
    Violation,
)
from holeymagic.oracle import EnumerationResult


def all_well_shaped(max_total):
    """Every (m, n, r, s) with r <= n, s <= m, mr = ns and mr <= max_total."""
    shapes = []
    for m in range(1, max_total + 1):
        for r in range(1, max_total + 1):
            t = m * r
            if t > max_total:
                break
            for n in range(1, t + 1):
                if t % n:
                    continue
                s = t // n
                if r <= n and s <= m:
                    shapes.append((m, n, r, s))
    return shapes


_VALUE_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


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


def diagonal_run(grid: HoleyGrid):
    """The broken diagonals (j - i) mod n that carry a filled cell of a
    square grid, as one cyclic run listed from its first diagonal, or None
    when they form no one run.  Tries every start, sharing nothing with
    the library's run reader."""
    n = grid.rows
    filled = {(j - i) % n for i in range(n) for j in range(n) if grid.cells[i][j] is not None}
    runs = ([(d + k) % n for k in range(len(filled))] for d in sorted(filled))
    return next((run for run in runs if set(run) == filled), None)


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


def swap_columns(grid: HoleyGrid, p: int, q: int) -> HoleyGrid:
    """A copy of grid with columns p and q swapped: line sums and fill
    counts stay, the diagonals the filled cells lie on need not."""
    cells = [list(row) for row in grid.cells]
    for row in cells:
        row[p], row[q] = row[q], row[p]
    return HoleyGrid.from_rows(cells)


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


def reference_search_assignment(cell_domain, lines, domains, left):
    """First exact assignment of distinct values to cells, or None, and
    the nodes left of `left`; (None, -1) on the attempt that overruns it.

    Cells are filled in index order.  cell_domain: domain index of each
    cell; lines: list of (target, cell indices in fill order); domains:
    list of ascending value tuples with exact counts (each domain holds as
    many values as cells).

    Each domain keeps its unused values as one ascending free list: a
    placement pops the value at its position and backtracking re-inserts
    it there, so a line's bounds are sums of the k smallest and k largest
    free values (plain slices), and a cell's candidates are the free values
    up to the smallest remaining line target.  The search is an
    explicit-stack loop, so its depth is not limited by the interpreter's
    recursion limit.  Charges one node per attempted placement.
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

    free = [list(d) for d in domains]
    assignment = [0] * ncells
    pos_of = [0] * ncells  # free-list position each placed value came from
    idx, pos = 0, 0  # the free-list position cell idx resumes from
    while idx < ncells:
        f = free[cell_domain[idx]]
        mine = checks[idx]
        cap = min(gap[L] for L, _ in mine)
        for pos in range(pos, bisect_right(f, cap)):
            left -= 1
            if left < 0:
                return None, -1
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
                return None, left
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
        idx, pos = idx + 1, 0
    return assignment, left


def reference_enumerate(m, n, r, s, witness_cap, node_budget, stop_at) -> EnumerationResult:
    """The oracle's sweep as it was before candidates were windowed and
    before it kept one grid per orbit: it examines and charges one free
    value at a time over every grid.

    Same arguments and result as holeymagic.oracle._run.
    """
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


class _StopWalk(Exception):
    pass


def reference_canonical_enumerate(m, n, r, s, witness_cap, node_budget,
                                  stop_at) -> EnumerationResult:
    """A value-by-value walk over canonical grids, each counting m!*n!.

    Canonical: each row holds the smallest value free when it starts, and
    the columns holding a value are a prefix, a value opening the next one
    only, larger than the value in the previous column if the same row
    opened that.  Cells row-major, Empty first, then each free value in
    ascending order, one node each, up to and including the first value
    above what the row or the column still needs.  A cell past the next
    column to open examines no value.  Same arguments and result as
    holeymagic.oracle._run.
    """
    total = m * r
    if r * (total - 1) % 2 or s * (total - 1) % 2:
        return EnumerationResult(0, (), True)
    orbit = factorial(m) * factorial(n)
    grid = [[None] * n for _ in range(m)]
    free = list(range(total))
    row_need = [r * (total - 1) // 2] * m
    col_need = [s * (total - 1) // 2] * n
    row_left = [r] * m
    col_left = [s] * n
    left = node_budget
    count = 0
    witnesses = []

    def walk(idx, opened, low):
        nonlocal left, count
        if idx == m * n:
            count += orbit
            if len(witnesses) < witness_cap:
                witnesses.append(HoleyGrid.from_rows([row[:] for row in grid]))
            if stop_at is not None and count >= stop_at:
                raise _StopWalk
            return
        i, j = divmod(idx, n)
        if j == 0:
            low = free[0]
        rk = row_left[i] - 1
        ck = col_left[j] - 1
        if n - 1 - j > rk and m - 1 - i > ck:
            left -= 1
            if left < 0:
                raise _StopWalk
            walk(idx + 1, opened, low)
        if rk < 0 or ck < 0 or j > opened:
            return
        above = -1
        if j == opened and j and grid[i][j - 1] is not None and col_left[j - 1] == s - 1:
            above = grid[i][j - 1]
        for p, v in enumerate(list(free)):
            left -= 1
            if left < 0:
                raise _StopWalk
            if v > row_need[i] or v > col_need[j]:
                return
            if v <= above or (rk == 0 and low in free and v != low):
                continue
            # the line's other k cells can take need - v from the other values
            rest = free[:p] + free[p + 1:]
            if not all(sum(rest[:k]) <= need - v <= sum(rest[len(rest) - k:])
                       for need, k in ((row_need[i], rk), (col_need[j], ck))):
                continue
            del free[p]
            grid[i][j] = v
            row_need[i] -= v
            col_need[j] -= v
            row_left[i] -= 1
            col_left[j] -= 1
            walk(idx + 1, opened + (j == opened), low)
            free.insert(p, v)
            grid[i][j] = None
            row_need[i] += v
            col_need[j] += v
            row_left[i] += 1
            col_left[j] += 1

    try:
        walk(0, 0, 0)
    except _StopWalk:
        return EnumerationResult(count, tuple(witnesses), False)
    return EnumerationResult(count, tuple(witnesses), True)


def reference_verify(grid: HoleyGrid, spec: MagicSpec) -> VerificationReport:
    """Check every magic axiom of grid against spec.

    ok requires: r filled cells per row, s per column, filled values exactly
    {0..mr-1} each once, and all row and column sums hitting r(mr-1)/2 and
    s(mr-1)/2, compared doubled so a half-integral constant meets no sum.
    row_constant/col_constant are reported whenever the observed sums
    agree with each other, even on a failing grid.
    """
    if (grid.rows, grid.cols) != (spec.m, spec.n):
        raise ShapeError(
            f"grid is {grid.rows}x{grid.cols} but spec wants {spec.m}x{spec.n}"
        )
    row_sum2 = spec.r * (spec.m * spec.r - 1)
    col_sum2 = spec.s * (spec.m * spec.r - 1)
    failures = []

    row_fill = [0] * spec.m
    col_fill = [0] * spec.n
    row_sums = [0] * spec.m
    col_sums = [0] * spec.n
    values = []
    for i, j, v in grid.filled():
        row_fill[i] += 1
        col_fill[j] += 1
        row_sums[i] += v
        col_sums[j] += v
        values.append(v)

    for i, count in enumerate(row_fill):
        if count != spec.r:
            failures.append(Violation("FillCountRow", i))
    for j, count in enumerate(col_fill):
        if count != spec.s:
            failures.append(Violation("FillCountCol", j))
    if sorted(values) != list(range(spec.total_cells)):
        failures.append(Violation("ValueMultiset"))
    for i, total in enumerate(row_sums):
        if 2 * total != row_sum2:
            failures.append(Violation("RowSum", i))
    for j, total in enumerate(col_sums):
        if 2 * total != col_sum2:
            failures.append(Violation("ColSum", j))

    row_constant = row_sums[0] if len(set(row_sums)) == 1 else None
    col_constant = col_sums[0] if len(set(col_sums)) == 1 else None
    return VerificationReport(not failures, row_constant, col_constant, tuple(failures))


def reference_parse(text: str) -> HoleyGrid:
    """Parse MRX text: "<rows> <cols>" header, then one line per row of
    space-separated tokens, each "." or a canonical nonnegative decimal.
    Exactly one space between tokens, trailing newline required.

    Raises ParseError carrying the offending 1-based line number.
    """
    if not text.endswith("\n"):
        raise ParseError("missing trailing newline", max(1, text.count("\n") + 1))
    lines = text.split("\n")[:-1]
    if not lines:
        raise ParseError("empty input", 1)

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
    for i in range(rows):
        lineno = i + 2
        tokens = lines[i + 1].split(" ")
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} tokens, got {len(tokens)}", lineno)
        row = []
        for tok in tokens:
            if tok == EMPTY_TOKEN:
                row.append(None)
            elif _VALUE_RE.match(tok):
                row.append(int(tok))
            else:
                raise ParseError(f"bad token {tok!r}", lineno)
        cells.append(tuple(row))
    return HoleyGrid(rows, cols, tuple(cells))


def reference_lift(base, class_of, K):
    """The copies of kotzig.lift, one comprehension step per cell per copy."""
    n = sum(len(row) - row.count(None) for row in base.cells)
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
