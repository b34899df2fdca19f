"""Ingredient grids for the constructions: holey magic squares MS(m;s),
classical full magic rectangles and magic rectangle sets MRS(a,b;c).

Resolution order is always existence.require, then the catalog or a
closed form, returned without touching the cache, then the cache, then
deterministic backtracking search; only a searched square is stored when
a cache is given.  Closed forms: even MR(a,b) lift MR(2,b) through a
Kotzig array (kotzig.lift), odd MR(a,a) is the Siamese square, odd
coprime MR(a,b) with a short side of 3 or 5 are signed magic arrays
shifted up, and every other odd MR(a,b) lifts MR(a,p) or MR(p,b) for the
first p in (gcd(a,b), 3, 5) with 1 < p that properly divides b or a.
The full square MS(m;m) is MR(m,m).  Every MRS(a,b;c) is c copies of
MR(a,b) lifted through one more Kotzig array.  The odd rectangles no p
fits, and the sets over them, are never searched: they raise
SearchBudgetExceeded with 0 nodes at once.  Thin squares (s < m) and
profiled squares the closed form misses are searched in one walk, and
the cache holds only those (`mr` entries of older versions still load).
A diagonal profile is one run of the lowest values.  magic_square_holes
checks its budget, an int >= 0, once.  A search that overruns it, or
whose walk ends without a square, raises SearchBudgetExceeded: only
existence.require and an unfit profile refuse with NotConstructible.  An
IngredientCache appends under flock, so processes may share one; it
remembers overruns in memory, never in its file, and answers a repeat at
the same or a smaller budget at once.
"""

from __future__ import annotations

import contextlib
import fcntl
import math
import os
import re
import stat
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import existence
from .errors import (
    BadIngredient,
    CacheError,
    CorruptCache,
    NotConstructible,
    SearchBudgetExceeded,
    ShapeError,
)
from .grid import (
    HoleyGrid,
    above,
    beside,
    MagicSpec,
    parse,
    serialize,
    verify,
)
from .kotzig import KotzigArray, base_pair, base_triple, kotzig, lift

DEFAULT_BUDGET = 10 ** 8

# Known squares, byte-identical to their published form.  Keys are (m, s).
_CATALOG_MS = {
    (5, 3): (
        "5 5\n"
        ". . 2 10 9\n"
        "6 . . 4 11\n"
        "12 8 . . 1\n"
        "3 13 5 . .\n"
        ". 0 14 7 .\n"
    ),
    (6, 4): (
        "6 6\n"
        ". 0 23 15 8 .\n"
        ". . 1 22 14 9\n"
        "10 . . 2 21 13\n"
        "12 11 . . 3 20\n"
        "19 17 6 . . 4\n"
        "5 18 16 7 . .\n"
    ),
}


@dataclass(frozen=True)
class DiagonalProfile:
    """Where a holey magic square keeps its lowest values.

    The one run (q, 0, hi) requires q cyclically consecutive support
    diagonals that jointly hold 0..hi, every diagonal holding a block of
    (hi+1)/q consecutive values.  Empty, multi-run and lo > 0 profiles,
    and run entries that are not ints (a bool is not), raise ValueError.
    """

    required_runs: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.required_runs) != 1:
            raise ValueError(f"a profile is one run (q, 0, hi), got {self.required_runs}")
        ((q, lo, hi),) = self.required_runs
        if not all(map(existence.is_int, (q, lo, hi))) or q < 1 or lo != 0 or hi < lo:
            raise ValueError(f"bad profile run {(q, lo, hi)}")
        if (hi + 1) % q != 0:
            raise ValueError(f"run {(q, lo, hi)} does not split into {q} equal blocks")

    def tag(self) -> str:
        return ":".join(map(str, self.required_runs[0]))


def profile_satisfied(grid: HoleyGrid, profile: DiagonalProfile) -> bool:
    """Content-based check of a profile: block membership is read off the
    diagonal values, not off any particular diagonal position."""
    if grid.rows != grid.cols:
        return False
    n = grid.rows
    diags: Dict[int, List[int]] = {}
    for i, j, v in grid.filled():
        diags.setdefault((j - i) % n, []).append(v)
    ((q, _, hi),) = profile.required_runs
    block = (hi + 1) // q
    members = [d for d, vals in diags.items() if max(vals) <= hi]
    if len(members) != q:
        return False
    if sorted(v for d in members for v in diags[d]) != list(range(hi + 1)):
        return False
    for d in members:
        vals = diags[d]
        if len(vals) != block or max(vals) - min(vals) != block - 1:
            return False
    return _run_top(set(members), n) is not None


def _run_top(diagonals, m: int) -> Optional[int]:
    """The last diagonal of the one cyclic run that the diagonals mod m
    form (m - 1 when all m are there), or None when they form no one run."""
    if len(diagonals) == m:
        return m - 1
    tops = [d for d in diagonals if (d + 1) % m not in diagonals]
    return tops[0] if len(tops) == 1 else None


# ---------------------------------------------------------------------------
# validators, shared by the constructors and the cache

def require_magic(grid: HoleyGrid, spec: MagicSpec, what: str) -> None:
    """Raise BadIngredient unless `grid` passes verify for `spec`."""
    try:
        report = verify(grid, spec)
    except ShapeError as exc:
        raise BadIngredient(f"{what}: {exc}") from exc
    if not report.ok:
        tags = " ".join(str(v) for v in report.failures[:4])
        raise BadIngredient(f"{what} fails verification for {spec}: {tags}")


def require_ms(square: HoleyGrid, m: int, s: int) -> List[int]:
    """Validate an s-diagonal MS(m;s) ingredient: its filled cells lie on s
    cyclically consecutive broken diagonals (j - i) mod m.  Returns those
    diagonals from the top of the run down, so label i is at index i."""
    require_magic(square, MagicSpec(m, m, s, s), f"MS({m};{s}) ingredient")
    support = {(j - i) % m for i, j, _ in square.filled()}
    top = _run_top(support, m)
    if len(support) != s or top is None:
        raise BadIngredient(
            f"MS({m};{s}) ingredient is not {s}-diagonal: support {sorted(support)}"
        )
    return [(top - i) % m for i in range(s)]


def _mrs_gate(a: int, b: int, c: int) -> None:
    existence.require_positive_ints("a, b and c", a, b, c)
    if a > b:
        raise ValueError(f"MRS({a},{b};{c}): give the short side first, a <= b")
    existence.require(existence.mrs_exists, a, b, c)


# ---------------------------------------------------------------------------
# closed forms: full rectangles and squares lifted from a small base

def two_per_column(m: int, k: int) -> HoleyGrid:
    """MR(m, km; 2k, 2): k subsquares, two filled diagonals each.  At m = 2
    it is the full MR(2, 2k) that the even closed forms lift.

    The k even and k odd cases fill the subsquare diagonals with different
    value ranges; row indices wrap modulo m.
    """
    existence.require(existence.two_per_column_exists, m, k)

    n = k * m
    cells: List[List] = [[None] * n for _ in range(m)]

    def put(i: int, col: int, v: int) -> None:
        cells[i % m][col] = v

    for l in range(k):
        for i in range(m):
            col = l * m + i
            if k % 2 == 0:
                descending = l % 2 == 1
            elif l == k - 1:
                # final subsquare interleaves the two middle value blocks
                put(i, col, (k + 1) * m - 2 * i - 1)
                put(i + 1, col, (k - 1) * m + 2 * i)
                continue
            else:
                descending = l > (k - 1) // 2
            if descending:
                put(i, col, (l + 1) * m - i - 1)
                put(i + 1, col, (2 * k - l - 1) * m + i)
            else:
                put(i, col, l * m + i)
                put(i + 1, col, (2 * k - l) * m - i - 1)
    return HoleyGrid.from_rows(cells)


def _siamese(g: int) -> HoleyGrid:
    """De la Loubere's Siamese square of odd order g on 0..g^2-1."""
    return HoleyGrid.from_rows(
        [g * ((i + j + 1 + g // 2) % g) + (i + 2 * j + 1) % g for j in range(g)]
        for i in range(g))


def _closed_rectangle(a: int, b: int) -> Optional[HoleyGrid]:
    """Full MR(a,b) on 0..ab-1 for a pair mr_exists allows, or None when
    both sides are odd, coprime, at least 7 and prime to 15.

    Even sides stack a/2 copies of MR(2,b) (its columns as classes; b = 2
    transposes MR(2,a)).  Odd a = b is the Siamese square.  Odd coprime
    sides with a short side of 3 or 5 are a signed array, its short side
    as the rows, shifted up by h = (ab-1)/2: an MR(a,b) with ab odd, less
    h, holds -h..h and every line sums to 0 (Khodkar, Schulz and Wagner,
    "Existence of some signed magic arrays", Discrete Math. 340, 2017).
    MR(5,7) is a catalog entry.  Every other odd pair lifts a smaller
    rectangle by the first p in (gcd(a,b), 3, 5) with 1 < p that properly
    divides b or a: b/p MR(a,p) side by side (rows as classes) when p
    divides b, else a/p MR(p,b) stacked (columns as classes).
    """
    if a % 2 == 0:
        if b == 2:
            return HoleyGrid.from_rows(zip(*_closed_rectangle(2, a).cells))
        return above(lift(two_per_column(2, b // 2), lambda i, j: j, kotzig(b, a // 2)))
    if a == b:
        return _siamese(a)
    g, short, n = math.gcd(a, b), min(a, b), max(a, b)
    if g == 1 and short in (3, 5):
        if (short, n) == (5, 7):
            rows = _CATALOG_MR_5_7
        else:
            h = (a * b - 1) // 2
            signed = _signed_rows3(n) if short == 3 else _signed_rows5(n)
            rows = [[h + v for v in row] for row in signed]
        return HoleyGrid.from_rows(zip(*rows) if a > b else rows)
    for p in (g, 3, 5):
        if 1 < p < b and b % p == 0:
            return beside(lift(_closed_rectangle(a, p), lambda i, j: i, kotzig(a, b // p)))
        if 1 < p < a and a % p == 0:
            return above(lift(_closed_rectangle(p, b), lambda i, j: j, kotzig(b, a // p)))
    return None


# MR(5,7), from a band form: _signed_rows5 needs n >= 9.
_CATALOG_MR_5_7 = ((34, 10, 27, 1, 16, 31, 0), (6, 19, 29, 8, 25, 4, 28),
                   (12, 23, 2, 17, 32, 11, 22), (13, 30, 9, 26, 5, 15, 21),
                   (20, 3, 18, 33, 7, 24, 14))


def _distinct_sum(t: int, lo: int, hi: int, total: int) -> Optional[List[int]]:
    """t distinct values in lo..hi summing to `total`, or None if none do:
    lo..lo+t-1, the top ones raised by the room r above them, the next one
    by the rest."""
    vals = list(range(lo, lo + t))
    e, r = total - sum(vals), hi - lo + 1 - t
    if e < 0 or e > t * r:
        return None
    if e:
        up, rest = divmod(e, r)
        for x in range(t - up, t):
            vals[x] += r
        if rest:
            vals[t - up - 1] += rest
    return vals


def _signed_rows3(n: int) -> List[List[int]]:
    """3 x n array on -(3k+1)..3k+1, k = (n-1)/2, whose lines sum to 0;
    n odd, at least 5 and prime to 3.

    With p = k+1+i and q = k+1+(2i mod n), column i is (q-p, p, -q) for i
    in T, else (q-p, -q, p); row 0 holds -k..k.  Rows 1 and 2 sum to 0 when
    p+q summed over T is n^2.  T = 0..k misses that by (k^2-3k-2)/2, and
    trading t of its indices i for k+1+j adds t(k+2) + 3(sum j - sum i).
    The first t in 1, 4, 7, ... that fits is taken; for large k, some t
    between k/7 and k/2 does."""
    k = (n - 1) // 2
    miss = (k * k - 3 * k - 2) // 2
    for t in range(1, k + 1, 3):
        rest = (miss - t * (k + 2)) // 3
        if rest >= 0:
            out, into = range(t), _distinct_sum(t, 0, k - 1, rest + t * (t - 1) // 2)
        else:
            into, out = range(t), _distinct_sum(t, 0, k, t * (t - 1) // 2 - rest)
        if out is not None and into is not None:
            break
    T = set(range(k + 1)).difference(out).union(k + 1 + j for j in into)
    cols = []
    for i in range(n):
        p, q = k + 1 + i, k + 1 + 2 * i % n
        cols.append((q - p, p, -q) if i in T else (q - p, -q, p))
    return [list(row) for row in zip(*cols)]


def _signed_rows5(n: int) -> List[List[int]]:
    """5 x n array on -(5k+2)..5k+2, k = (n-1)/2, whose lines sum to 0;
    n odd, at least 9 and prime to 5: MR(3,n) shifted down by 3k+1 (for n
    prime to 3, _signed_rows3(n)) over a row y and a row -y, where y signs
    3k+2..5k+2 so that the + ones, the fewest that can, sum to n^2."""
    k = (n - 1) // 2
    rows = [[v - 3 * k - 1 for v in row] for row in _closed_rectangle(3, n).cells]
    low = 3 * k + 2
    plus = next(set(p) for c in range(n + 1)
                if (p := _distinct_sum(c, 0, n - 1, n * n - c * low)) is not None)
    y = [low + j if j in plus else -(low + j) for j in range(n)]
    return rows + [y, [-v for v in y]]


# ---------------------------------------------------------------------------
# search kernel

def _search_assignment(cell_domain, lines, domains, left):
    """First exact assignment of distinct values to cells, or None, and
    the nodes left of `left`; (None, -1) on the attempt that overruns it.

    Cells are filled in index order.  cell_domain: domain index of each
    cell; lines: list of (target, cell indices in fill order), each cell
    on two, its row and its column; domains: list of ascending value
    tuples with exact counts (each domain holds as many values as cells).

    Each domain keeps its unused values as one ascending free list: a
    placement pops the value at its position and backtracking re-inserts
    it there.  A cell's candidates are the free values up to the smaller of
    its two line targets, tried in ascending order.  A candidate can be
    placed when, on each line of the cell, the gap it leaves lies between
    the sums of the k smallest and of the k largest free values the line's
    k later cells can take.  Taking the candidate out of its domain trades
    it for the next free value only when it is among those k, so the
    candidates that pass form one window of the free list: the kernel
    bisects to it on entering a cell, bounding it by the first line
    `lines` lists the cell on and then the second, and keeps it while it
    resumes the cell, whose state is then the same.  The search is an
    explicit-stack loop, so its depth is not limited by the interpreter's
    recursion limit.

    Charges one node per attempted placement, as if every candidate were
    tried in turn: the candidates the window skips are charged in one step.
    """
    ncells = len(cell_domain)
    gap = [t for t, _ in lines]  # a line's target minus its placed values
    free = [list(d) for d in domains]
    # per cell: its domain's free list, then for each of its two lines the
    # line, (domain, count) pairs of that line's later cells and how many of
    # those cells share the cell's own domain
    cells: List[list] = [[free[d]] for d in cell_domain]
    for L, (_, seq) in enumerate(lines):
        counts: Dict[int, int] = {}
        for c in reversed(seq):
            d = cell_domain[c]
            k = counts.get(d, 0)
            cells[c] += (L, tuple(counts.items()), k)
            counts[d] = k + 1

    assignment = [0] * ncells
    pos_of = [0] * ncells  # free-list position each placed value came from
    stop = [0] * ncells  # end of the cell's window of placeable positions
    end = [0] * ncells  # end of its candidates, the smaller gap's bisect
    idx, pos = 0, None  # pos None: cell idx is entered afresh, not resumed
    while idx < ncells:
        f, row, row_rest, row_k, col, col_rest, col_k = cells[idx]
        if pos is None:
            pos = at = 0
            g, h = gap[row], gap[col]
            end[idx] = upto = bisect_right(f, g if g < h else h)
            last = len(f) - 1
            # position p passes a line iff f[max(p, k)] <= most and
            # f[min(p, last - k)] >= least: a v among the k smallest
            # (largest) free values is traded for f[k] (f[last - k])
            if at < upto:
                lo = hi = 0
                for d, n in row_rest:
                    fd = free[d]
                    if n == 1:
                        lo += fd[0]
                        hi += fd[-1]
                    else:
                        lo += sum(fd[:n])
                        hi += sum(fd[-n:])
                most, least = g - lo, g - hi
                if f[row_k] > most or f[last - row_k] < least:
                    upto = at
                else:
                    at = bisect_left(f, least, at, upto)
                    upto = bisect_right(f, most, at, upto)
            if at < upto:
                lo = hi = 0
                for d, n in col_rest:
                    fd = free[d]
                    if n == 1:
                        lo += fd[0]
                        hi += fd[-1]
                    else:
                        lo += sum(fd[:n])
                        hi += sum(fd[-n:])
                most, least = h - lo, h - hi
                if f[col_k] > most or f[last - col_k] < least:
                    upto = at
                else:
                    at = bisect_left(f, least, at, upto)
                    upto = bisect_right(f, most, at, upto)
            stop[idx] = upto
        else:
            at, upto = pos, stop[idx]  # resumed inside or past the window
        if at < upto:
            spent = at - pos + 1
        else:
            spent = end[idx] - pos  # pos <= stop[idx] <= end[idx]
        if spent > left:
            return None, -1
        left -= spent
        if at >= upto:
            # candidates exhausted: take back the previous cell's value and
            # resume that cell after it
            if idx == 0:
                return None, left
            idx -= 1
            f, row, _, _, col, _, _ = cells[idx]
            v, pos = assignment[idx], pos_of[idx]
            gap[row] += v
            gap[col] += v
            f.insert(pos, v)
            pos += 1
            continue
        v = f.pop(at)
        gap[row] -= v
        gap[col] -= v
        assignment[idx], pos_of[idx] = v, at
        idx, pos = idx + 1, None
    return assignment, left


# ---------------------------------------------------------------------------
# holey magic squares

def magic_square_holes(m: int, s: int, profile: Optional[DiagonalProfile] = None,
                       *, cache=None, budget: int = DEFAULT_BUDGET) -> HoleyGrid:
    """An s-diagonal MS(m;s), optionally matching a diagonal profile.

    `budget`, the search's node allowance, is an int >= 0 (a bool is not)
    or ValueError; running out raises SearchBudgetExceeded with budget + 1
    nodes.  Raises NotConstructible unless existence.ms_exists(m, s), or
    for a profile that cannot fit.  Resolution: catalog, the closed-form
    full square when s = m and it meets the profile, then cache and one
    search walk (_search_square), which finds a square or raises the
    inconclusive SearchBudgetExceeded.  This is the only code that touches
    the cache (an IngredientCache or a path, or None for none): a hit is
    returned, a found square stored.  A miss whose search the same
    IngredientCache overran at this budget or a larger one raises at once,
    as the search would: a budget only cuts one deterministic walk short.
    """
    existence.require_positive_ints("m and s", m, s)
    if not (existence.is_int(budget) and budget >= 0):
        raise ValueError("budget must be an integer >= 0")
    existence.require(existence.ms_exists, m, s)
    text = _CATALOG_MS.get((m, s))
    if text is not None:
        grid = parse(text)
    else:
        grid = _closed_rectangle(m, m) if s == m else None
    if grid is not None and (profile is None or profile_satisfied(grid, profile)):
        return grid
    if cache is None:
        return _search_square(m, s, profile, budget)
    if not isinstance(cache, IngredientCache):
        cache = IngredientCache(cache)
    grid = cache.load("ms", (m, s), profile)
    if grid is not None:
        return grid
    key = _cache_key("ms", (m, s), profile)
    if cache._dry.get(key, -1) >= budget:
        raise SearchBudgetExceeded(_square_label(m, s, profile), budget + 1)
    try:
        grid = _search_square(m, s, profile, budget)
    except SearchBudgetExceeded as exc:
        if exc.nodes > budget:  # an overrun; an ended walk is not remembered
            cache._dry[key] = budget
        raise
    cache.store("ms", (m, s), grid, profile)
    return grid


def _square_label(m, s, profile):
    return f"MS({m};{s})" + (f" profile {profile.tag()}" if profile is not None else "")


def _search_square(m, s, profile, budget):
    """Search MS(m;s) on the support {m-s..m-1} in one walk: block k < q,
    km..km+m-1, on diagonal m-s+k and the other values on the rest.  q is
    s (s < m: MS(m;m) has a closed form) or the profile's run.  Cells fill
    row 0, column 0, row 1, column 1, ... so both lines bind early.  A walk
    places at most one cell per node, so m*s > budget is an overrun before
    any cell is built.  A walk that ends without a square fixed its blocks'
    order, so it is inconclusive: SearchBudgetExceeded with the nodes spent.
    """
    q = s
    if profile is not None:
        ((q, _, hi),) = profile.required_runs
        if q > s or hi + 1 != q * m:
            raise NotConstructible(
                f"no MS({m};{s}) with diagonal profile {profile.tag()}: "
                + (f"the run needs {q} diagonals and there are {s}" if q > s
                   else f"the run holds {q} x {m} = {q * m} values, not {hi + 1}"))
    label = _square_label(m, s, profile)
    if m * s > budget:
        raise SearchBudgetExceeded(label, budget + 1)
    cells = []
    for t in range(m):
        cells += [(t, j) for j in range(t + m - s, m)]
        cells += [(i, t) for i in range(t + 1, min(t + s + 1, m))]
    target = s * (m * s - 1) // 2
    lines = [(target, []) for _ in range(2 * m)]
    for idx, (i, j) in enumerate(cells):
        lines[i][1].append(idx)
        lines[m + j][1].append(idx)
    domains = [tuple(range(k * m, (k + 1) * m)) for k in range(q)]
    if q < s:
        domains.append(tuple(range(q * m, m * s)))
    cell_domain = [min((j - i + s) % m, q) for i, j in cells]
    got, left = _search_assignment(cell_domain, lines, domains, budget)
    if left < 0:
        raise SearchBudgetExceeded(label, budget + 1)
    if got is None:
        n = budget - left
        raise SearchBudgetExceeded(label, n, f"the walk ended without a square after {n} nodes")
    grid = [[None] * m for _ in range(m)]
    for (i, j), v in zip(cells, got):
        grid[i][j] = v
    return HoleyGrid.from_rows(grid)


# ---------------------------------------------------------------------------
# classical full magic rectangles

def classical_rectangle(a: int, b: int, *, cache=None, budget: int = DEFAULT_BUDGET) -> HoleyGrid:
    """Full a x b magic rectangle on 0..ab-1.

    Raises NotConstructible unless existence.mr_exists(a, b), and at once
    SearchBudgetExceeded with 0 nodes (inconclusive) for odd coprime sides
    both at least 7 and prime to 15, which have no closed form here;
    nothing is searched, so `cache` and `budget` are unused.
    """
    existence.require(existence.mr_exists, a, b)
    result = _closed_rectangle(a, b)
    if result is None:
        raise SearchBudgetExceeded(f"MR({a},{b})", 0, "no construction for odd coprime "
                                   "sides both >= 7 and prime to 15; nothing was searched")
    return result


# ---------------------------------------------------------------------------
# magic rectangle sets

def _odd_set_class(i: int, j: int) -> int:
    """Row of the odd sets' 8-row Kotzig array that cell (i, j) of an odd
    base follows: T0, T1, T2 are rows 0-2, their complements rows 3-5, the
    identity and reversal rows 6 and 7."""
    if i < 3 and j < 3:
        return (i + j) % 3
    if i < 3:
        return i + 3 * ((j - 3) % 2)
    if j < 3:
        return j + 3 * ((i - 3) % 2)
    return 6 + (i + j) % 2


def magic_rectangle_set(a: int, b: int, c: int, *, cache=None,
                        budget: int = DEFAULT_BUDGET) -> List[HoleyGrid]:
    """c full a x b rectangles jointly holding 0..abc-1 with shared row sum
    b(abc-1)/2 and column sum a(abc-1)/2.

    Raises ValueError when a > b and NotConstructible unless
    existence.mrs_exists(a, b, c).  The set is c copies of
    classical_rectangle(a, b) lifted through a Kotzig array (kotzig.lift),
    so a base with no closed form raises its SearchBudgetExceeded with 0
    nodes, and nothing searches.  Even sides use kotzig(2, c) with
    checkerboard classes.  Odd sides use the rows of base_triple(c), their
    complements c-1-T, the identity and the reversal, classed by
    _odd_set_class: the first three cells of every line of the base follow
    T0, T1 and T2 or their three complements, and its other cells, an even
    number, alternate between two rows that sum to c-1.
    So every line of every copy gains the same amount.
    """
    _mrs_gate(a, b, c)
    base = classical_rectangle(a, b, cache=cache, budget=budget)
    if a % 2 == 0:
        class_of, K = lambda i, j: (i + j) % 2, kotzig(2, c)
    else:
        triple = base_triple(c).entries
        rows = triple + tuple(tuple(c - 1 - x for x in row) for row in triple)
        class_of, K = _odd_set_class, KotzigArray(8, c, rows + base_pair(c).entries)
    return [HoleyGrid(a, b, cells) for cells in lift(base, class_of, K)]


# ---------------------------------------------------------------------------
# persistent cache

def _cache_key(kind: str, params: Sequence[int], profile: Optional[DiagonalProfile]) -> str:
    """The KEY line's text; ValueError for a key the reader would refuse
    or read back as another, which would poison the whole file."""
    tag = profile.tag() if profile is not None else "-"
    key = " ".join([kind, *map(str, params), tag])
    if not _reads_back(key):
        raise ValueError(f"cannot key a cache entry by {key!r}")
    return key


def _reads_back(key: str) -> bool:
    """Whether a KEY line holding `key` reads back as `key`: one line, and
    a kind, decimal parameters and a tag joined by single spaces."""
    parts = key.split(" ")
    return ("\n" not in key and "\r" not in key and len(parts) >= 2
            and all(p.isascii() and p.isdigit() for p in parts[1:-1]))


def _validate_entry(kind, params, profile, grid):
    """Re-verify a cache entry with the constructors' validators; any
    failure means the file was tampered."""
    try:
        if kind == "ms":
            require_ms(grid, *params)
            if profile is not None and not profile_satisfied(grid, profile):
                raise BadIngredient(f"violates profile {profile.tag()}")
        elif kind == "mr":
            a, b = params
            require_magic(grid, MagicSpec(a, b, b, a), f"MR({a},{b}) ingredient")
        else:
            raise BadIngredient(f"unknown cache kind {kind!r}")
    except Exception as exc:
        raise CorruptCache(f"cached {kind} {params} is invalid: {exc}") from exc


class IngredientCache:
    """Human-inspectable append-only log of searched ingredients.

    Each entry is a KEY line ("KEY <kind> <params...> <profile-tag>") and
    one MRX grid.  The file is split at KEY lines only; parse reads a grid
    when its key loads, so a bad entry fails its own key alone.  Stores
    append under an exclusive flock (POSIX only) and loads read under a
    shared one, so processes sharing the file keep every entry; the last
    entry under a key wins, and no byte (old multi-grid `mrs` entries
    too) is rewritten.  A path that is not a regular file raises
    CacheError unopened.  Every load and store reads the file afresh.
    Budget overruns are remembered per instance (magic_square_holes),
    never in the file: unlike a grid, a failure cannot be re-verified on
    load.
    """

    def __init__(self, path):
        self.path = str(path)
        self._dry: Dict[str, int] = {}  # search key -> largest budget it overran

    def load(self, kind, params, profile=None):
        """The key's grid, or None on a miss.  Entries re-verify on load;
        tampering raises CorruptCache."""
        text = self._read().get(_cache_key(kind, params, profile))
        if text is None:
            return None
        try:
            grid = parse(text)
        except Exception as exc:
            raise CorruptCache(f"unparseable cache entry for {kind} {params}: {exc}") from exc
        _validate_entry(kind, tuple(params), profile, grid)
        return grid

    def store(self, kind, params, grid, profile=None):
        """Append the key's entry, which wins over any earlier one on load;
        a no-op when the file already holds the same text under the key."""
        key = _cache_key(kind, params, profile)
        text = serialize(grid)
        self._refuse_special()
        try:
            with open(self.path, "a+") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # held until close, after the flush
                fh.seek(0)
                raw = fh.read()
                if self._entries(raw).get(key) != text:
                    cut = raw[-1:] not in ("", "\n")  # a cut last line must not swallow a KEY
                    fh.write("\n" * cut + f"KEY {key}\n{text}")
        except OSError as exc:
            raise CacheError(f"cannot write cache {self.path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptCache(f"{self.path}: undecodable bytes: {exc}") from exc

    def _read(self) -> Dict[str, str]:
        """The file's entries, key to text, read afresh."""
        self._refuse_special()
        try:
            with open(self.path, "r") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                raw = fh.read()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise CacheError(f"cannot read cache {self.path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CorruptCache(f"{self.path}: undecodable bytes: {exc}") from exc
        return self._entries(raw)

    def _refuse_special(self):
        """CacheError, before any open, for a path that is no regular file."""
        with contextlib.suppress(FileNotFoundError):
            if not stat.S_ISREG(os.stat(self.path).st_mode):  # a FIFO would block open
                raise CacheError(f"cannot read cache {self.path}: not a regular file")

    def _entries(self, raw: str) -> Dict[str, str]:
        """Key to text, split at KEY lines only; a later entry under a key
        wins, which is what makes an append a replacement."""
        first, *chunks = re.split(r"(?m)^KEY ", raw)
        if first:
            raise CorruptCache(f"{self.path}: expected KEY line at line 1")
        entries: Dict[str, str] = {}
        for chunk in chunks:
            key, _, text = chunk.partition("\n")
            if not _reads_back(key):
                raise CorruptCache(f"{self.path}: malformed key {key!r}")
            entries[key] = text
        return entries
