import pytest

from holeymagic import (
    BadIngredient,
    HoleyGrid,
    MagicSpec,
    NotConstructible,
    block_set,
    decide,
    five_case,
    nmss,
    parse,
    product,
    realize,
    serialize,
    stacked,
    two_per_column,
    verify,
)
from holeymagic import construct
from holeymagic.construct import BUILDS
from holeymagic.grid import above
from holeymagic.kotzig import kotzig, lift
from holeymagic.ingredients import classical_rectangle, magic_rectangle_set

import golden
from support import diagonal_run, naive_check, swap_columns


def hstack(grids):
    rows = []
    for p in range(grids[0].rows):
        row = []
        for g in grids:
            row.extend(g.cells[p])
        rows.append(row)
    return HoleyGrid.from_rows(rows)


def test_two_per_column_golden():
    assert serialize(two_per_column(5, 2)) == golden.TWO_PER_COLUMN_5_2
    assert serialize(two_per_column(4, 3)) == golden.TWO_PER_COLUMN_4_3
    assert serialize(two_per_column(3, 2)) == golden.TWO_PER_COLUMN_3_2


def test_two_per_column_rejects_single_square():
    with pytest.raises(NotConstructible):
        two_per_column(4, 1)
    with pytest.raises(NotConstructible):
        two_per_column(1, 3)
    with pytest.raises(ValueError):
        two_per_column(0, 2)


@pytest.mark.parametrize("build", [
    lambda sq: two_per_column(3.0, 2),
    lambda sq: stacked(5.0, 5, 3, sq),
    lambda sq: nmss(5, 3.0, 1, sq),
    lambda sq: five_case(True, 2, sq, sq),
    lambda sq: block_set(3, 5.0, 3, []),
    lambda sq: stacked(5, True, 3, sq),
    lambda sq: nmss(5, 3, 2.0, sq),
], ids=["two_per_column", "stacked", "nmss", "five_case", "block_set", "stacked_bool", "nmss_float"])
def test_builders_take_positive_int_sides(build):
    # the rule of existence.necessary_conditions, as at the ingredient gates
    with pytest.raises(ValueError, match="must be positive integers"):
        build(parse(golden.SQUARE_5_3))


def test_stacked_golden():
    square = parse(golden.SQUARE_5_3)
    assert serialize(stacked(5, 5, 3, square)) == golden.STACKED_5_5_3


def test_stacked_single_copy_is_identity():
    square = parse(golden.SQUARE_5_3)
    assert stacked(5, 1, 3, square) == square


def test_stacked_two_diagonals_delegates():
    assert stacked(5, 2, 2, None) == two_per_column(5, 2)
    with pytest.raises(NotConstructible):
        stacked(5, 1, 2, None)


def test_stacked_parity_gate():
    square = parse(golden.SQUARE_5_3)
    # k*m even with s odd has no balanced routing
    with pytest.raises(NotConstructible):
        stacked(5, 2, 3, square)


def test_builds_gate_before_any_search():
    # MS(31;3) exists and searches; at one node its search would raise
    # SearchBudgetExceeded, but NMSS(31,3;2) and MR(3,4) do not exist
    with pytest.raises(NotConstructible):
        BUILDS["Stacked"](31, 2, 3, budget=1)
    with pytest.raises(NotConstructible):
        BUILDS["Product"](31, 3, 3, 4, budget=1)
    # NMSS(31,3;2), five-case MR(62,93;9,6) and MRS(3,3;2) do not exist
    with pytest.raises(NotConstructible):
        construct._build_nmss(31, 3, 2, budget=1)
    with pytest.raises(NotConstructible):
        BUILDS["FiveCase"](31, 3, budget=1)
    with pytest.raises(NotConstructible):
        BUILDS["BlockSet"](3, 3, 2, budget=1)


@pytest.mark.parametrize("params, missing, product_shape", [
    ((3, 3, 2, 2), "MR(2,2)", "MR(6,6;6,6)"),
    ((4, 4, 1, 3), "MR(1,3)", "MR(4,12;12,4)"),
])
def test_product_refusal_names_the_missing_ingredient(params, missing, product_shape):
    # the product's shape exists by another route, so the refusal must
    # not deny it
    m, s, a, b = params
    assert decide(a * m, b * m, b * s, a * s).verdict == "exists"
    with pytest.raises(NotConstructible) as refused:
        BUILDS["Product"](*params)
    assert missing in str(refused.value)
    assert product_shape not in str(refused.value)


def test_stacked_rejects_bad_square():
    with pytest.raises(BadIngredient):
        stacked(5, 5, 3, parse(golden.SQUARE_6_4))  # wrong size
    cells = [list(row) for row in parse(golden.SQUARE_5_3).cells]
    cells[0][2] += 1
    with pytest.raises(BadIngredient):
        stacked(5, 5, 3, HoleyGrid.from_rows(cells))
    # an MS(5;3) whose filled cells lie on all five diagonals; one copy
    # is validated as many are
    spread = swap_columns(parse(golden.SQUARE_5_3), 0, 1)
    for k in (1, 5):
        with pytest.raises(BadIngredient, match="is not 3-diagonal"):
            stacked(5, k, 3, spread)


def test_nmss_matches_stacked_slices():
    square = parse(golden.SQUARE_5_3)
    result = nmss(5, 3, 5, square)
    assert result.constant == 111
    assert hstack(result.squares) == parse(golden.STACKED_5_5_3)


def test_nmss_invariants():
    square = parse(golden.SQUARE_5_3)
    result = nmss(5, 3, 3, square)
    values = []
    for sq in result.squares:
        assert diagonal_run(sq) == diagonal_run(square) == [2, 3, 4]
        for i in range(5):
            row = [v for v in sq.cells[i] if v is not None]
            col = [sq.cells[p][i] for p in range(5) if sq.cells[p][i] is not None]
            assert len(row) == len(col) == 3
            assert sum(row) == sum(col) == result.constant
        values.extend(v for _, _, v in sq.filled())
    assert sorted(values) == list(range(45))


def test_nmss_gates():
    square = parse(golden.SQUARE_5_3)
    with pytest.raises(NotConstructible):
        nmss(5, 3, 2, square)  # mt even with s odd
    with pytest.raises(NotConstructible):
        nmss(5, 2, 3, square)  # s < 3


def test_product_of_golden_square_and_small_rectangle():
    square = parse(golden.SQUARE_5_3)
    rect = classical_rectangle(3, 5)
    out = product(square, rect)
    report = verify(out, MagicSpec(15, 25, 15, 9))
    assert report.ok
    # (abms-1)bs/2 and (abms-1)as/2 with a=3 b=5 m=5 s=3
    assert report.row_constant == 1680
    assert report.col_constant == 1008


def test_product_rejects_bad_ingredients():
    square = parse(golden.SQUARE_5_3)
    with pytest.raises(BadIngredient):
        product(parse(golden.TWO_PER_COLUMN_3_2), classical_rectangle(3, 5))
    cells = [list(row) for row in classical_rectangle(3, 5).cells]
    cells[0][0], cells[0][1] = cells[0][1], cells[0][0]
    with pytest.raises(BadIngredient):
        product(square, HoleyGrid.from_rows(cells))


def test_five_case_golden():
    big = parse(golden.SQUARE_6_4)
    strip = parse(golden.TWO_PER_COLUMN_3_2)
    assert serialize(five_case(3, 2, big, strip)) == golden.FIVE_CASE_3_2


def test_five_case_gates():
    big = parse(golden.SQUARE_6_4)
    strip = parse(golden.TWO_PER_COLUMN_3_2)
    with pytest.raises(NotConstructible):
        five_case(3, 3, big, strip)  # s odd
    with pytest.raises(NotConstructible):
        five_case(1, 2, big, strip)  # s > m
    with pytest.raises(BadIngredient):
        five_case(3, 2, parse(golden.SQUARE_5_3), strip)
    cells = [list(row) for row in strip.cells]
    cells[0][0], cells[1][0] = cells[1][0], cells[0][0]
    with pytest.raises(BadIngredient):
        five_case(3, 2, big, HoleyGrid.from_rows(cells))


def test_five_case_from_lifted_square():
    # the square need not hold its low values on diagonals
    for m, s in [(2, 2), (4, 2), (4, 4), (6, 4)]:
        strip = realize(m, 2 * m, 2 * s, s, budget=2500)
        square = above(lift(strip, lambda i, j: j // m, kotzig(2, 2)))
        out = five_case(m, s, square, strip)
        assert verify(out, MagicSpec(2 * m, 3 * m, 3 * s, 2 * s)).ok


def test_five_case_realized_at_sweep_budget():
    for shape in [(8, 12, 6, 4), (10, 15, 12, 8), (12, 18, 12, 8),
                  (20, 30, 6, 4), (40, 60, 6, 4)]:
        assert decide(*shape).route == "FiveCase"
        grid = realize(*shape, budget=2500)
        assert verify(grid, MagicSpec(*shape)).ok
        assert naive_check(grid, *shape)


def test_block_set_small():
    rects = magic_rectangle_set(2, 4, 2)
    out = block_set(2, 4, 2, rects)
    report = verify(out, MagicSpec(4, 8, 4, 2))
    assert report.ok
    # b(abc-1)/2 and a(abc-1)/2 with a=2 b=4 c=2
    assert report.row_constant == 30
    assert report.col_constant == 15


def test_block_set_gates():
    rects = magic_rectangle_set(2, 4, 2)
    with pytest.raises(BadIngredient):
        block_set(2, 4, 2, rects[:1])
    with pytest.raises(NotConstructible):
        block_set(2, 2, 2, rects)
    with pytest.raises(NotConstructible):
        block_set(1, 4, 2, rects)
    with pytest.raises(NotConstructible):
        block_set(3, 5, 2, rects)  # odd sides need an odd count
    r0, r1, _ = magic_rectangle_set(3, 3, 3)
    with pytest.raises(BadIngredient, match=r"^member 2 is 3x5, expected 3x3$"):
        block_set(3, 3, 3, [r0, r1, classical_rectangle(3, 5)])


def test_realize_routes_to_golden():
    assert serialize(realize(5, 10, 4, 2)) == golden.TWO_PER_COLUMN_5_2
    assert realize(1, 1, 1, 1) == HoleyGrid.from_rows([[0]])


def test_realize_refuses_nonexistent_and_unknown():
    with pytest.raises(NotConstructible):
        realize(3, 3, 2, 2)
    with pytest.raises(NotConstructible):
        realize(9, 15, 10, 6)


def test_realize_names_the_verdict_and_reason():
    with pytest.raises(NotConstructible,
                       match=r"^decide\(4,4,3,3\) is not-exists: RowSumNonIntegral$"):
        realize(4, 4, 3, 3)
    assert decide(6, 3, 2, 4).verdict == "unknown"
    with pytest.raises(NotConstructible, match=r"^decide\(6,3,2,4\) is unknown$"):
        realize(6, 3, 2, 4)
