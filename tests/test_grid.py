import enum
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
    parse,
    serialize,
    verify,
)
from holeymagic.grid import above, beside

import golden
import support


def test_grid_rejects_bad_cells():
    with pytest.raises(ShapeError):
        HoleyGrid(2, 2, ((0, 1),))
    with pytest.raises(ShapeError, match=r"^grid must be at least 1x1, got 0x3$"):
        HoleyGrid(0, 3, ())
    with pytest.raises(ShapeError):
        HoleyGrid.from_rows([])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([[-1]])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([[True]])
    with pytest.raises(ValueError):
        HoleyGrid.from_rows([["3"]])


def test_grid_stores_tuple_rows():
    g = HoleyGrid(2, 2, [[0, 1], [2, 3]])
    assert g.cells == ((0, 1), (2, 3))
    assert hash(g) == hash(HoleyGrid.from_rows([[0, 1], [2, 3]]))
    assert g == HoleyGrid.from_rows([[0, 1], [2, 3]])
    assert HoleyGrid(1, 2, [(None, 4)]) == HoleyGrid(1, 2, ((None, 4),))


class Color(enum.IntEnum):
    A = 7


class Named(int):
    def __str__(self):
        return "seven"


def test_grid_stores_int_subclasses_as_int():
    # Python 3.10 prints an IntEnum member as its name, which parse refuses
    for seven in (Color.A, Named(7)):
        g = HoleyGrid.from_rows([[0, seven], [None, 3]])
        assert [type(v) for row in g.cells for v in row] == [int, int, type(None), int]
        assert serialize(g) == "2 2\n0 7\n. 3\n"
        assert parse(serialize(g)) == g


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


@pytest.mark.parametrize("build", [
    lambda: MagicSpec(2.0, 4, 4, 2),
    lambda: MagicSpec(True, True, True, True),
    lambda: HoleyGrid(1.0, 1, ((0,),)),
], ids=["spec-float", "spec-bool", "grid-float"])
def test_non_int_sizes_raise_value_error(build):
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_verify_constants_exact():
    report = verify(parse(golden.TWO_PER_COLUMN_5_2), MagicSpec(5, 10, 4, 2))
    assert report.ok and (report.row_constant, report.col_constant) == (38, 19)
    # 12 values, row sum 3*11/2 is not an integer: every row fails, however
    # its values lie, while columns pairing j with 11-j all hit 2*11/2
    g = HoleyGrid.from_rows([[0, 1, 2, None, None, None], [11, 10, 9, None, None, None],
                             [None, None, None, 3, 4, 5], [None, None, None, 8, 7, 6]])
    report = verify(g, MagicSpec(4, 6, 3, 2))
    assert [str(f) for f in report.failures] == ["RowSum(0)", "RowSum(1)", "RowSum(2)", "RowSum(3)"]
    assert (report.row_constant, report.col_constant) == (None, 11)


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


def test_beside_many_grids_concatenates_rows():
    rng = random.Random(7)
    grids = [HoleyGrid.from_rows([[rng.choice([None, rng.randint(0, 99)]) for _ in range(w)]
                                  for _ in range(3)])
             for w in [rng.randint(1, 4) for _ in range(500)]]
    joined = beside([g.cells for g in grids])
    expected = tuple(tuple(v for g in grids for v in g.cells[i]) for i in range(3))
    assert joined == HoleyGrid(3, len(expected[0]), expected)
    assert beside([grids[0].cells]) == grids[0]


def test_beside_rejects_unequal_heights():
    square = HoleyGrid.from_rows([[0, 1], [2, 3]])
    strip = HoleyGrid.from_rows([[4, 5]])
    with pytest.raises(ShapeError):
        beside([square.cells, strip.cells])
    with pytest.raises(ShapeError):
        beside([strip.cells, square.cells])


def test_above_and_beside_take_cell_blocks():
    top = HoleyGrid.from_rows([[0, None], [None, 1]])
    bottom = ((2, 3),)
    assert above([top.cells, bottom]) == HoleyGrid.from_rows([[0, None], [None, 1], [2, 3]])
    assert beside([top.cells, [[0, None], (None, 1)]]) == HoleyGrid.from_rows(
        [[0, None, 0, None], [None, 1, None, 1]])
    with pytest.raises(ShapeError):
        above([top.cells, ((2,),)])
    with pytest.raises(ValueError):
        beside([top.cells, ((-1,), (0,))])  # the joined grid checks every block's cells


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
    # int() reads six of these, str.isdigit() passes the superscript and
    # int(tok, 0) reads the hex; MRX takes none
    for tok in ["+1", "-0", "1_0", "\u0663", "\u00b9", "\t1", "1\r", "0x1"]:
        with pytest.raises(ParseError) as exc:
            parse(f"2 2\n0 .\n. {tok}\n")
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: bad token {tok!r}"
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


def _outcome(fn, *args):
    """fn's result, or the message and line of the ParseError it raised."""
    try:
        return fn(*args)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


_BAD_TOKENS = ["", "01", "-1", "+1", "-0", "1_0", "\u0663", "\u00b9", "\t1", "1\r", "0x1",
               "1.0", "..", "-", "None", "1 ", " "]


def _mutated_text(text: str, rng: random.Random) -> str:
    """text with one edit to a random line: a bad token, a token dropped
    or added, a doubled space, or a line removed, repeated or cut short."""
    lines = text.split("\n")[:-1]
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    kind = rng.choice(["token", "token", "drop", "add", "space", "delete", "repeat",
                       "newline"])
    if kind == "token":
        tokens[rng.randrange(len(tokens))] = rng.choice(_BAD_TOKENS)
    elif kind == "drop":
        del tokens[rng.randrange(len(tokens))]
    elif kind == "add":
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice([".", "0", "17"]))
    elif kind == "space":
        tokens.insert(rng.randrange(len(tokens) + 1), "")
    elif kind == "delete":
        del lines[i]
        return "\n".join(lines) + "\n"
    elif kind == "repeat":
        lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"
    else:
        return "\n".join(lines)
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_parse_matches_reference():
    rng = random.Random(10)
    texts = [golden.TWO_PER_COLUMN_5_2, golden.TWO_PER_COLUMN_4_3, golden.TWO_PER_COLUMN_3_2,
             golden.SQUARE_5_3, golden.STACKED_5_5_3, golden.SQUARE_6_4, golden.FIVE_CASE_3_2,
             "", "\n", "1 1\n0", "1 1\n0\n", "1 1\n.\n\n", "2 1\n0\n"]
    for _ in range(400):
        text = serialize(support.random_grid(rng))
        texts.append(text)
        texts += [_mutated_text(text, rng) for _ in range(3)]
    errors = 0
    for text in texts:
        expected = _outcome(support.reference_parse, text)
        assert _outcome(parse, text) == expected, text
        errors += isinstance(expected, tuple)
    assert errors > 1000 and len(texts) - errors >= 400  # both outcomes well covered


def _specs(rows: int, cols: int) -> list:
    """Every MagicSpec with these dimensions."""
    return [MagicSpec(rows, cols, r, rows * r // cols) for r in range(1, cols + 1)
            if (rows * r) % cols == 0 and rows * r // cols <= rows]


def test_verify_matches_reference():
    rng = random.Random(11)
    cases = []
    for text, spec in [(golden.TWO_PER_COLUMN_5_2, MagicSpec(5, 10, 4, 2)),
                       (golden.SQUARE_5_3, MagicSpec(5, 5, 3, 3)),
                       (golden.STACKED_5_5_3, MagicSpec(5, 25, 15, 3)),
                       (golden.SQUARE_6_4, MagicSpec(6, 6, 4, 4)),
                       (golden.FIVE_CASE_3_2, MagicSpec(6, 9, 6, 4))]:
        g = parse(text)
        cases.append((g, spec))
        for _ in range(150):
            g = support.mutate(g, rng) if rng.random() < 0.7 else parse(text)
            cases.append((g, spec))
    for _ in range(300):
        g = support.random_grid(rng)
        cases.append((g, rng.choice(_specs(g.rows, g.cols))))
    # value sets 0..mr-1 in random places, under specs whose row or
    # column constant is not an integer
    for m, n, r, s in [(4, 6, 3, 2), (2, 2, 1, 1), (3, 6, 2, 1), (6, 4, 2, 3)]:
        for _ in range(40):
            slots = rng.sample(range(m * n), m * r)
            cells = [[None] * n for _ in range(m)]
            for v, slot in enumerate(slots):
                cells[slot // n][slot % n] = v
            cases.append((HoleyGrid.from_rows(cells), MagicSpec(m, n, r, s)))
    # twice the row constant is r(mr-1), twice the column constant s(mr-1)
    assert any(spec.r * (spec.m * spec.r - 1) % 2 for _, spec in cases)
    assert any(spec.s * (spec.m * spec.r - 1) % 2 for _, spec in cases)
    oks = 0
    for g, spec in cases:
        report = verify(g, spec)
        assert report == support.reference_verify(g, spec), (serialize(g), spec)
        oks += report.ok
    assert oks > 50

