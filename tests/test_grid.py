import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holeymagic import (
    HoleyGrid,
    MagicSpec,
    ParseError,
    ShapeError,
    cyclic_run_start,
    diagonal_support,
    is_consecutive_cyclic,
    magic_constants,
    parse,
    serialize,
    verify,
)
from holeymagic.grid import beside

import golden
import support


def test_grid_rejects_bad_cells():
    with pytest.raises(ShapeError):
        HoleyGrid(2, 2, ((0, 1),))
    with pytest.raises(ShapeError):
        HoleyGrid.from_rows([])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([[-1]])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([[True]])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([["3"]])


def test_grid_filled_order():
    g = HoleyGrid.from_rows([[None, 5], [2, None]])
    assert list(g.filled()) == [(0, 1, 5), (1, 0, 2)]


def test_spec_validation():
    MagicSpec(5, 10, 4, 2)
    with pytest.raises(ShapeError):
        MagicSpec(2, 3, 2, 2)  # 2*2 != 3*2
    with pytest.raises(ShapeError):
        MagicSpec(1, 2, 4, 2)  # r > n
    with pytest.raises(ShapeError):
        MagicSpec(0, 1, 1, 0)


def test_magic_constants_exact():
    c = magic_constants(MagicSpec(5, 10, 4, 2))
    assert (c.row_sum, c.col_sum) == (38, 19)
    assert c.row_integral and c.col_integral
    # 12 values, row sum 3*11/2 is not an integer
    c = magic_constants(MagicSpec(4, 6, 3, 2))
    assert not c.row_integral
    assert c.col_integral and c.col_sum == 11


def test_verify_accepts_golden():
    g = parse(golden.TWO_PER_COLUMN_5_2)
    report = verify(g, MagicSpec(5, 10, 4, 2))
    assert report.ok
    assert report.row_constant == 38
    assert report.col_constant == 19
    assert report.failures == ()


def test_verify_trivial_one_by_one():
    report = verify(HoleyGrid.from_rows([[0]]), MagicSpec(1, 1, 1, 1))
    assert report.ok
    assert (report.row_constant, report.col_constant) == (0, 0)


def test_verify_tags_each_violation():
    g = HoleyGrid.from_rows([[0, 3], [2, 2]])
    report = verify(g, MagicSpec(2, 2, 2, 2))
    assert not report.ok
    assert [str(f) for f in report.failures] == [
        "ValueMultiset",
        "RowSum(1)",
        "ColSum(0)",
        "ColSum(1)",
    ]
    # row sums disagree, so no row constant to report
    assert report.row_constant is None


def test_verify_fill_counts():
    g = HoleyGrid.from_rows([[0, None], [2, 1]])
    report = verify(g, MagicSpec(2, 2, 2, 2))
    tags = {str(f) for f in report.failures}
    assert "FillCountRow(0)" in tags
    assert "FillCountCol(1)" in tags


def test_verify_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        verify(HoleyGrid.from_rows([[0]]), MagicSpec(2, 2, 2, 2))


def test_diagonal_support():
    g = parse(golden.SQUARE_5_3)
    assert diagonal_support(g) == {2, 3, 4}
    assert is_consecutive_cyclic({2, 3, 4}, 5)
    assert cyclic_run_start({2, 3, 4}, 5) == 2
    with pytest.raises(ShapeError):
        diagonal_support(parse(golden.TWO_PER_COLUMN_3_2))


def test_cyclic_runs_wrap():
    assert is_consecutive_cyclic({4, 0, 1}, 5)
    assert cyclic_run_start({4, 0, 1}, 5) == 4
    assert not is_consecutive_cyclic({0, 2}, 5)
    assert not is_consecutive_cyclic(set(), 5)
    assert is_consecutive_cyclic({0, 1, 2, 3, 4}, 5)
    assert cyclic_run_start({0, 1, 2, 3, 4}, 5) == 0
    with pytest.raises(ValueError):
        cyclic_run_start({0, 2}, 5)


def test_beside_many_grids_concatenates_rows():
    rng = random.Random(7)
    grids = [HoleyGrid.from_rows([[rng.choice([None, rng.randint(0, 99)]) for _ in range(w)]
                                  for _ in range(3)])
             for w in [rng.randint(1, 4) for _ in range(500)]]
    joined = beside(grids)
    expected = tuple(tuple(v for g in grids for v in g.cells[i]) for i in range(3))
    assert joined == HoleyGrid(3, len(expected[0]), expected)
    assert beside(grids[:1]) == grids[0]


def test_serialize_golden_fixed_point():
    for text in [golden.TWO_PER_COLUMN_5_2, golden.SQUARE_6_4, golden.STACKED_5_5_3]:
        assert serialize(parse(text)) == text


def test_parse_requires_trailing_newline():
    with pytest.raises(ParseError) as exc:
        parse("1 1\n0")
    assert exc.value.line == 2


def test_parse_error_pickles():
    err = ParseError("bad", 3)
    back = pickle.loads(pickle.dumps(err))
    assert (str(back), back.line) == (str(err), err.line) == ("line 3: bad", 3)


def test_parse_bad_header():
    for text in ["\n", "1\n", "1 2 3\n", "a b\n", "01 1\n", "0 3\n"]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == 1


def test_parse_row_count_mismatch():
    with pytest.raises(ParseError) as exc:
        parse("3 3\n. . .\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse("1 1\n0\n\n")
    assert exc.value.line == 3


def test_parse_bad_tokens():
    for row in ["0 01", "0 -1", "0  1", "0 1 ", "0 1.0"]:
        with pytest.raises(ParseError) as exc:
            parse(f"1 2\n{row}\n")
        assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("1 2\n0\n")  # too few tokens


def test_roundtrip_seeded_corpus():
    rng = random.Random(0)
    for _ in range(200):
        g = support.random_grid(rng)
        assert parse(serialize(g)) == g


@st.composite
def grids(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    cell = st.one_of(st.none(), st.integers(min_value=0, max_value=10**9))
    cells = tuple(tuple(draw(cell) for _ in range(cols)) for _ in range(rows))
    return HoleyGrid(rows, cols, cells)


@given(grids())
@settings(derandomize=True, max_examples=150)
def test_roundtrip_property(g):
    assert parse(serialize(g)) == g
