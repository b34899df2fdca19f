import itertools
import sys

import pytest

from holeymagic import HoleyGrid, MagicSpec, ShapeError, serialize, verify
from holeymagic.oracle import EnumerationResult, enumerate as brute_enumerate, exists_brute


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
    result = brute_enumerate(2, 4, 4, 2, witness_cap=3)
    assert result.count == 48
    assert len(result.witnesses) == 3
    for w in result.witnesses:
        assert verify(w, MagicSpec(2, 4, 4, 2)).ok


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


def test_large_gate():
    with pytest.raises(ValueError):
        brute_enumerate(4, 4, 4, 4)
    # explicit opt-in runs, and a tiny budget reports honestly
    result = brute_enumerate(4, 4, 4, 4, node_budget=100, allow_large=True)
    assert not result.exhausted


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


# Node charging, frozen before the oracle became an explicit-stack loop: a
# node is one allowed Empty attempt or one free value examined, counting the
# value that ends a cell's ascending walk, and a run stops on budget + 1.
# Each shape exhausts at exactly the pinned budget and not one node sooner.
@pytest.mark.parametrize("shape, nodes, count", [
    ((3, 3, 3, 3), 4287, 72),
    ((2, 4, 4, 2), 1808, 48),
    ((4, 4, 2, 2), 5024, 0),
])
def test_pinned_node_charging(shape, nodes, count):
    done = brute_enumerate(*shape, witness_cap=0, node_budget=nodes)
    assert done == EnumerationResult(count, (), True)
    cut = brute_enumerate(*shape, witness_cap=0, node_budget=nodes - 1)
    assert cut == EnumerationResult(count, (), False)


PARTIAL_3_5_5_3 = """\
3 5
0 1 8 12 14
10 13 4 3 5
11 7 9 6 2
"""


def test_pinned_partial_result():
    result = brute_enumerate(3, 5, 5, 3, witness_cap=1, node_budget=20_000,
                             allow_large=True)
    assert (result.count, result.exhausted) == (10, False)
    assert [serialize(w) for w in result.witnesses] == [PARTIAL_3_5_5_3]


def test_deep_walk_does_not_recurse():
    # Row 0 opens with 1204 Empty cells, so the walk passes 1205 cells deep,
    # beyond the interpreter's default recursion limit of 1000.
    limit = sys.getrecursionlimit()
    result = brute_enumerate(5, 1505, 301, 1, witness_cap=1, node_budget=2000,
                             allow_large=True)
    assert (result.count, result.exhausted) == (0, False)
    assert sys.getrecursionlimit() == limit
