import functools
import hashlib
import itertools
import math
import sys

import pytest

from holeymagic import HoleyGrid, MagicSpec, ShapeError, serialize, verify
from holeymagic.oracle import (DEFAULT_NODE_BUDGET, EnumerationResult, _run,
                               enumerate as brute_enumerate, exists_brute)

import support


def naive_count(m, n, r, s):
    """Reference enumeration by raw iteration: every fill pattern with the
    right line counts, crossed with every value permutation.  Only sane for
    mr <= 9 or full grids up to 8 cells."""
    total = m * r
    double_row = r * (total - 1)
    double_col = s * (total - 1)
    patterns = []
    for rows in itertools.product(itertools.combinations(range(n), r), repeat=m):
        counts = [0] * n
        for row in rows:
            for j in row:
                counts[j] += 1
        if all(c == s for c in counts):
            patterns.append([(i, j) for i in range(m) for j in rows[i]])
    count = 0
    for cells in patterns:
        for values in itertools.permutations(range(total)):
            grid = {}
            for cell, v in zip(cells, values):
                grid[cell] = v
            ok = True
            for i in range(m):
                if 2 * sum(v for (a, _), v in grid.items() if a == i) != double_row:
                    ok = False
                    break
            if ok:
                for j in range(n):
                    if 2 * sum(v for (_, b), v in grid.items() if b == j) != double_col:
                        ok = False
                        break
            if ok:
                count += 1
    return count


def test_agrees_with_naive_enumeration():
    for shape in [(3, 3, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3), (2, 4, 4, 2)]:
        result = brute_enumerate(*shape, witness_cap=0)
        assert result.exhausted
        assert result.count == naive_count(*shape)


def test_known_counts():
    assert brute_enumerate(3, 3, 3, 3, witness_cap=0).count == 72
    assert brute_enumerate(2, 4, 4, 2, witness_cap=0).count == 48
    assert brute_enumerate(3, 3, 2, 2).count == 0


def test_trivial_witness():
    result = brute_enumerate(1, 1, 1, 1)
    assert result == EnumerationResult(1, (HoleyGrid.from_rows([[0]]),), True)


def test_witnesses_verify_and_cap():
    # 8 orbits of 3!*6! grids each, so the cap of 3 keeps 3 distinct orbits
    result = brute_enumerate(3, 6, 4, 2, witness_cap=3)
    assert result.count == 8 * 6 * 720
    assert len(set(result.witnesses)) == 3
    for w in result.witnesses:
        assert verify(w, MagicSpec(3, 6, 4, 2)).ok


def _is_canonical(grid):
    """Rows sorted by their smallest value; columns sorted by the row that
    first fills them and the value there."""
    rows = grid.cells
    mins = [min(v for v in row if v is not None) for row in rows]
    firsts = [min((i, row[j]) for i, row in enumerate(rows) if row[j] is not None)
              for j in range(grid.cols)]
    return mins == sorted(mins) and firsts == sorted(firsts)


@pytest.mark.parametrize("shape", [
    (3, 3, 3, 3), (3, 6, 4, 2), (6, 3, 2, 4), (5, 5, 3, 3), (8, 4, 2, 4), (8, 2, 2, 8),
], ids=lambda shape: "_".join(map(str, shape)))
def test_witnesses_are_canonical(shape):
    """Every kept witness is the canonical grid of its orbit, and each orbit
    adds m!*n! to the count."""
    m, n = shape[:2]
    result = brute_enumerate(*shape, witness_cap=10 ** 6)
    assert result.exhausted
    assert result.count == len(result.witnesses) * math.factorial(m) * math.factorial(n)
    assert len(set(result.witnesses)) == len(result.witnesses)
    for w in result.witnesses:
        # a wide shape is walked tall, so its witnesses are transposes of
        # canonical tall grids
        walked = HoleyGrid.from_rows(zip(*w.cells)) if n > m else w
        assert _is_canonical(walked)
        assert support.naive_check(w, *shape)


@pytest.mark.parametrize("shape, count", [
    ((8, 4, 2, 4), 100_638_720),
    ((4, 8, 4, 2), 100_638_720),
    ((10, 2, 2, 10), 72_576_000),
], ids=["8_4_2_4", "4_8_4_2", "10_2_2_10"])
def test_full_counts_of_wide_and_tall_shapes(shape, count):
    # one grid per orbit exhausts within the default 10**7 nodes, where a
    # walk over every grid runs out of even 10**9 on (10,2,2,10)
    result = brute_enumerate(*shape, witness_cap=0)
    assert result == EnumerationResult(count, (), True)


def test_deterministic():
    a = brute_enumerate(2, 4, 4, 2, witness_cap=2)
    b = brute_enumerate(2, 4, 4, 2, witness_cap=2)
    assert a == b


def test_shape_and_argument_errors():
    with pytest.raises(ShapeError):
        brute_enumerate(2, 3, 2, 2)
    with pytest.raises(ValueError):
        brute_enumerate(2, 4, 4, 2, witness_cap=-1)
    with pytest.raises(ValueError):
        brute_enumerate(2, 4, 4, 2, node_budget=0)


@pytest.mark.parametrize("shape", [(2.0, 4, 4, 2), (True, True, True, True)],
                         ids=["float", "bool"])
def test_non_int_sides_raise_value_error(shape):
    with pytest.raises(ValueError, match="must be integers"):
        brute_enumerate(*shape)


@pytest.mark.parametrize("call, kwargs", [
    (brute_enumerate, {"witness_cap": 1.5}),
    (brute_enumerate, {"witness_cap": True}),
    (brute_enumerate, {"node_budget": 10.5}),
    (brute_enumerate, {"node_budget": True}),
    (exists_brute, {"node_budget": 10.5}),
    (exists_brute, {"node_budget": True}),
], ids=["enumerate-cap-float", "enumerate-cap-bool", "enumerate-budget-float",
        "enumerate-budget-bool", "exists-budget-float", "exists-budget-bool"])
def test_non_int_cap_and_budget_raise_value_error(call, kwargs):
    with pytest.raises(ValueError, match="integer"):
        call(2, 4, 4, 2, **kwargs)


def test_default_budget_exhausts_every_shape_up_to_19_values():
    # the node budget is the only bound; the slowest of these is (4,4,4,4)
    for shape in support.all_well_shaped(19):
        assert brute_enumerate(*shape, witness_cap=0).exhausted, shape


def test_allow_large_is_ignored():
    for budget in (100, DEFAULT_NODE_BUDGET):
        assert (brute_enumerate(3, 5, 5, 3, node_budget=budget, allow_large=True)
                == brute_enumerate(3, 5, 5, 3, node_budget=budget))


def test_budget_never_raises():
    result = brute_enumerate(3, 3, 3, 3, node_budget=10)
    assert not result.exhausted
    assert result.count >= 0


def test_exists_brute_verdicts():
    assert exists_brute(2, 4, 4, 2) == "yes"
    assert exists_brute(3, 3, 2, 2) == "no"
    assert exists_brute(1, 1, 1, 1) == "yes"
    assert exists_brute(3, 3, 3, 3, node_budget=5) == "inconclusive"
    # parity-blocked shape needs no search at all to answer "no"
    assert exists_brute(3, 4, 4, 3, node_budget=1) == "no"


def test_nonintegral_constants_short_circuit():
    # 12 values, odd row count forces a fractional row sum; the oracle
    # proves emptiness without search
    result = brute_enumerate(4, 6, 3, 2, node_budget=1)
    assert result.count == 0
    assert result.exhausted


# Node charging, read off the value-by-value canonical reference: a node is
# one allowed Empty attempt or one free value examined, counting the value
# that ends a cell's ascending walk, and a run stops on budget + 1.  Each
# shape exhausts at exactly the pinned budget and not one node sooner.  A
# wide shape is walked as its tall transpose, so (2,4,4,2) and (2,6,6,2)
# carry the pins of (4,2,2,4) and (6,2,2,6).
@pytest.mark.parametrize("shape, nodes, count", [
    ((3, 3, 3, 3), 336, 72),
    ((2, 4, 4, 2), 81, 48),
    ((4, 4, 2, 2), 65, 0),
    ((4, 2, 2, 4), 81, 48),
    ((2, 6, 6, 2), 280, 1440),
    ((6, 2, 2, 6), 280, 1440),
    ((2, 8, 8, 2), 951, 322_560),
])
def test_pinned_node_charging(shape, nodes, count):
    done = brute_enumerate(*shape, witness_cap=0, node_budget=nodes)
    assert done == EnumerationResult(count, (), True)
    cut = brute_enumerate(*shape, witness_cap=0, node_budget=nodes - 1)
    assert cut == EnumerationResult(count, (), False)


# the first witness of the tall walk of (5,3,3,5), transposed back
PARTIAL_3_5_5_3 = """\
3 5
0 1 10 13 11
7 8 9 5 6
14 12 2 3 4
"""


def test_pinned_partial_result():
    result = brute_enumerate(3, 5, 5, 3, witness_cap=1, node_budget=20_000,
                             allow_large=True)
    assert (result.count, result.exhausted) == (29 * 6 * 120, False)
    assert [serialize(w) for w in result.witnesses] == [PARTIAL_3_5_5_3]


PARTIAL_4_4_4_4 = """\
4 4
0 1 14 15
7 12 9 2
13 6 3 8
10 11 4 5
"""

PARTIAL_12_2_2_12 = """\
12 2
0 23
1 22
2 21
20 3
19 4
18 5
17 6
7 16
15 8
14 9
13 10
12 11
"""


# Counted on the value-by-value canonical reference; (12,2,2,12) exhausts
# within the budget, at 34 orbits of 12!*2! grids.
@pytest.mark.parametrize("shape, count, exhausted, text, digest", [
    ((4, 4, 4, 4), 20 * 24 * 24, False, PARTIAL_4_4_4_4, "273c542e98f62a3d"),
    ((12, 2, 2, 12), 32_572_108_800, True, PARTIAL_12_2_2_12, "afab8aba413273e7"),
], ids=["4_4_4_4", "12_2_2_12"])
def test_pinned_partial_results(shape, count, exhausted, text, digest):
    assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)
    result = brute_enumerate(*shape, witness_cap=1, node_budget=20_000, allow_large=True)
    assert (result.count, result.exhausted) == (count, exhausted)
    assert [serialize(w) for w in result.witnesses] == [text]


def _workload_shapes():
    """The oracle benchmark's shapes: r, s >= 2, mr <= 40 and integral
    line constants."""
    shapes = []
    for m in range(1, 21):
        for r in range(2, 40 // m + 1):
            total = m * r
            for n in range(r, total + 1):
                s = total // n
                if (total % n == 0 and 2 <= s <= m
                        and r * (total - 1) % 2 == 0 and s * (total - 1) % 2 == 0):
                    shapes.append((m, n, r, s))
    return shapes


def _outcome(res):
    return res.count, res.exhausted, [serialize(w) for w in res.witnesses]


@functools.cache
def _every_grid_count(shape):
    """The walk over every grid at the largest budget compared, or None
    where it runs out: it exhausts at no smaller budget."""
    every = support.reference_enumerate(*shape, 0, 20_000, None)
    return every.count if every.exhausted else None


def _check_against_references(runs):
    """_run matches the canonical reference in count, exhaustion and
    witnesses, so in nodes too; where the walk over every grid exhausts as
    well, their exhausted counts agree."""
    for shape, budget, stop_at in runs:
        assert budget <= 20_000
        got = _outcome(_run(*shape, 2, budget, stop_at))
        assert got == _outcome(support.reference_canonical_enumerate(
            *shape, 2, budget, stop_at)), (shape, budget, stop_at)
        if got[1] and _every_grid_count(shape) is not None:
            assert got[0] == _every_grid_count(shape), shape


def test_windowed_sweep_matches_reference():
    """Windowed values against the value-by-value canonical walk at every
    budget tried."""
    shapes = _workload_shapes()
    assert len(shapes) == 111
    runs = [(shape, budget, None) for shape in shapes
            for budget in (1, 7, 333, 4999, 20_000)]
    runs += [(shape, budget, None)
             for shape in [(3, 3, 3, 3), (2, 4, 4, 2), (4, 4, 2, 2), (4, 2, 2, 4)]
             for budget in range(1, 1001)]
    runs += [(shape, 20_000, 1) for shape in shapes]  # exists_brute's path
    _check_against_references(runs)


def test_in_place_resumes_match_reference():
    """Backtracking resumes a cell in the step that undoes it, and an Empty
    cell met while undoing starts its values: on these holey shapes both
    happen at every kind of stopping point, so every budget is compared."""
    runs = [(shape, budget, None)
            for shape in [(3, 6, 4, 2), (5, 5, 3, 3), (6, 2, 2, 6), (8, 4, 2, 4)]
            for budget in range(1, 1001)]
    runs += [(shape, 20_000, 3) for shape in _workload_shapes()]
    _check_against_references(runs)


def test_deep_walk_does_not_recurse():
    # Row 0 opens with 1204 Empty cells, so the walk passes 1205 cells deep,
    # beyond the interpreter's default recursion limit of 1000.  enumerate
    # would walk the tall transpose, which exhausts at once, so this calls
    # the walk on the wide orientation itself.
    limit = sys.getrecursionlimit()
    result = _run(5, 1505, 301, 1, 1, 2000, None)
    assert (result.count, result.exhausted) == (0, False)
    assert sys.getrecursionlimit() == limit


def test_tall_walk_is_sound_on_wide_shapes():
    """Every wide workload shape, walked both ways at the workload's budget:
    the tall walk decides each shape the wide one does, with the same count
    where both exhaust, and enumerate's witnesses are wide grids."""
    wide = [shape for shape in _workload_shapes() if shape[1] > shape[0]]
    assert len(wide) == 38
    exhausts = [0, 0]  # by the wide walk, by the tall one
    for m, n, r, s in wide:
        as_given = _run(m, n, r, s, 0, 20_000, None)
        tall = _run(n, m, s, r, 0, 20_000, None)
        if as_given.exhausted:
            assert tall.exhausted, (m, n, r, s)
            assert tall.count == as_given.count, (m, n, r, s)
        elif tall.exhausted:
            assert as_given.count <= tall.count, (m, n, r, s)
        if as_given.count:
            assert tall.count or tall.exhausted, (m, n, r, s)
        exhausts[0] += as_given.exhausted
        exhausts[1] += tall.exhausted
        res = brute_enumerate(m, n, r, s, witness_cap=3, node_budget=20_000)
        assert (res.count, res.exhausted) == (tall.count, tall.exhausted)
        assert len(res.witnesses) == min(3, res.count // (
            math.factorial(m) * math.factorial(n)))
        for w in res.witnesses:
            assert verify(w, MagicSpec(m, n, r, s)).ok
            assert support.naive_check(w, m, n, r, s)
        verdict = ("yes" if res.count else "no" if res.exhausted
                   else "inconclusive")
        assert exists_brute(m, n, r, s, node_budget=20_000) == verdict, (m, n, r, s)
    assert exhausts == [3, 6]


def test_workload_shapes_conclusive_at_its_budget():
    # node counts are deterministic, so this pins the tall walk's gain (56
    # shapes were conclusive when wide shapes were walked as given)
    conclusive = 0
    for shape in _workload_shapes():
        res = brute_enumerate(*shape, witness_cap=1, node_budget=20_000)
        conclusive += res.count > 0 or res.exhausted
    assert conclusive >= 72
