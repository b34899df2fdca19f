import pytest

from holeymagic import MagicSpec, ParityError, base_pair, base_triple, kotzig, parse, verify
from holeymagic.grid import above
from holeymagic.kotzig import lift

import golden


def check_invariants(arr):
    """Rows permute 0..k-1; all k column sums equal (k-1)s/2, doubled."""
    assert arr.s == len(arr.entries)
    assert arr.k == len(arr.entries[0])
    for row in arr.entries:
        assert sorted(row) == list(range(arr.k))
    target2 = (arr.k - 1) * arr.s
    for j in range(arr.k):
        assert 2 * sum(row[j] for row in arr.entries) == target2


def test_golden_three_by_nine():
    assert kotzig(3, 9).entries == golden.KOTZIG_3_9


def test_golden_base_triple_five():
    assert base_triple(5).entries == golden.BASE_TRIPLE_5


def test_base_pair_structure():
    arr = base_pair(4)
    assert arr.entries == ((0, 1, 2, 3), (3, 2, 1, 0))
    check_invariants(arr)


def test_base_triple_rejects_even():
    with pytest.raises(ParityError):
        base_triple(4)


def test_parity_gates():
    with pytest.raises(ParityError):
        kotzig(3, 4)  # odd rows, even columns
    with pytest.raises(ParityError):
        kotzig(1, 2)  # single row cannot balance
    with pytest.raises(ValueError):
        kotzig(0, 3)
    with pytest.raises(ValueError):
        kotzig(3, 0)


@pytest.mark.parametrize("call", [
    lambda: kotzig(3.0, 2),  # not a nonexistence claim: a malformed input
    lambda: kotzig(2, 3.0),
    lambda: kotzig(2, True),
    lambda: base_pair(2.0),
    lambda: base_triple(3.0),
], ids=["kotzig-float-s", "kotzig-float-k", "kotzig-bool-k", "base_pair-float", "base_triple-float"])
def test_non_int_sizes_raise_value_error(call):
    with pytest.raises(ValueError, match="positive integers"):
        call()


def test_degenerate_single_column():
    arr = kotzig(3, 1)
    assert arr.entries == ((0,), (0,), (0,))
    check_invariants(arr)


def test_exhaustive_small():
    for s in range(1, 11):
        for k in range(1, 12):
            if s % 2 == 1 and k % 2 == 0:
                with pytest.raises(ParityError):
                    kotzig(s, k)
            elif s == 1 and k > 1:
                with pytest.raises(ParityError):
                    kotzig(s, k)
            else:
                check_invariants(kotzig(s, k))


def test_lift_returns_cells_of_each_copy():
    square = parse(golden.SQUARE_5_3)  # 15 filled cells
    copies = lift(square, lambda i, j: (j - i) % 5 - 2, kotzig(3, 5))
    assert len(copies) == 5
    for cells in copies:
        assert type(cells) is tuple and all(type(row) is tuple for row in cells)
        assert [[v is None for v in row] for row in cells] == \
            [[v is None for v in row] for row in square.cells]
    tower = above(copies)
    assert sorted(v for row in tower.cells for v in row if v is not None) == list(range(75))
    assert verify(tower, MagicSpec(25, 5, 3, 15)).ok

