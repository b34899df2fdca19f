import pytest

from holeymagic import (
    HoleyGrid,
    KotzigArray,
    MagicSpec,
    ParityError,
    base_pair,
    base_triple,
    kotzig,
    parse,
    verify,
)
from holeymagic.grid import above
from holeymagic.ingredients import (
    _odd_set_class,
    classical_rectangle,
    magic_square_holes,
    require_ms,
    two_per_column,
)
from holeymagic.kotzig import lift

import golden
from support import reference_lift


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


def _stacked_case(m, s, k):
    square = parse(golden.SQUARE_5_3) if (m, s) == (5, 3) else magic_square_holes(m, s)
    label_of = {d: i for i, d in enumerate(require_ms(square, m, s))}
    # an odd s needs an odd k; a spare row gives an even count and goes unread
    return square, lambda i, j: label_of[(j - i) % m], kotzig(s + (s % 2 and k % 2 == 0), k)


def _odd_set_case(a, b, c):
    triple = base_triple(c).entries
    rows = triple + tuple(tuple(c - 1 - x for x in row) for row in triple)
    return classical_rectangle(a, b), _odd_set_class, KotzigArray(8, c, rows + base_pair(c).entries)


_HOLEY_ROW = HoleyGrid(3, 3, ((None, None, None), (0, None, 1), (None, 2, None)))
_DIAGONAL_2 = HoleyGrid(2, 2, ((0, None), (None, 1)))
_SHORT_K = KotzigArray(2, 5, ((0, 1, 2), (2, 1, 0)))  # 3 columns, whatever its k says
_RAGGED_K = KotzigArray(2, 4, ((0, 1, 2, 3), (2, 1, 0)))  # 3 columns, even if row 1 goes unread

# Copy counts below, at and above the base's width: lift zips per-cell
# iterators when the copies outnumber the columns and loops otherwise.
LIFT_CASES = {
    **{f"ms_{m}_{s}_k{k}": (lambda m=m, s=s, k=k: _stacked_case(m, s, k))
       for m, s in [(5, 3), (7, 3), (15, 3)] for k in (1, 3, m, m + 1)},
    **{f"mr_2_{b}_k1": (lambda b=b: (two_per_column(2, b // 2), lambda i, j: j, kotzig(b, 1)))
       for b in (4, 10, 60)},
    **{f"mr_3_5_rows_c{c}": (lambda c=c: (classical_rectangle(3, 5), lambda i, j: i, kotzig(3, c)))
       for c in (1, 3, 9)},
    **{f"mr_5_3_columns_c{c}": (lambda c=c: (classical_rectangle(5, 3), lambda i, j: j, kotzig(3, c)))
       for c in (1, 3, 9)},
    **{f"odd_set_{a}_{b}_c{c}": (lambda a=a, b=b, c=c: _odd_set_case(a, b, c))
       for a, b in [(3, 5), (5, 7)] for c in (1, 3, 9)},
    **{f"empty_row_k{k}": (lambda k=k: (_HOLEY_ROW, lambda i, j: j, kotzig(4, k)))
       for k in (1, 3, 4, 7)},
    "short_k_narrow": lambda: (_DIAGONAL_2, lambda i, j: i, _SHORT_K),
    "short_k_wide": lambda: (classical_rectangle(3, 5), lambda i, j: i % 2, _SHORT_K),
    "ragged_k_narrow": lambda: (HoleyGrid(1, 2, ((0, 1),)), lambda i, j: 0, _RAGGED_K),
    "all_holes_k3": lambda: (HoleyGrid(1, 2, ((None, None),)), lambda i, j: 0, kotzig(2, 3)),
}


@pytest.mark.parametrize("case", LIFT_CASES.values(), ids=LIFT_CASES.keys())
def test_lift_matches_reference(case):
    base, class_of, K = case()
    copies = lift(base, class_of, K)
    assert copies == reference_lift(base, class_of, K)
    assert type(copies) is list and len(copies) == min(map(len, K.entries))
    for cells in copies:
        assert type(cells) is tuple and all(type(row) is tuple for row in cells)
