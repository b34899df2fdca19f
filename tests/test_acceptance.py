"""Acceptance sweep: one test per criterion, each printing a PASS line with
its measured numbers.  Budgets and time limits are part of the contract, so
they are asserted, not just reported.
"""

import random
import time

import pytest

from holeymagic import (
    HoleyGrid,
    IngredientCache,
    MagicSpec,
    ParityError,
    SearchBudgetExceeded,
    base_triple,
    decide,
    kotzig,
    nmss,
    parse,
    product,
    realize,
    serialize,
    two_per_column,
    stacked,
    block_set,
    five_case,
    verify,
)
from holeymagic.ingredients import (
    classical_rectangle,
    magic_rectangle_set,
    magic_square_holes,
)
from holeymagic.oracle import enumerate as brute_enumerate, exists_brute

import golden
import support


def test_criterion_1_golden_grids():
    cases = [
        (lambda: serialize(two_per_column(5, 2)), golden.TWO_PER_COLUMN_5_2),
        (lambda: serialize(two_per_column(4, 3)), golden.TWO_PER_COLUMN_4_3),
        (lambda: serialize(two_per_column(3, 2)), golden.TWO_PER_COLUMN_3_2),
        (lambda: kotzig(3, 9).entries, golden.KOTZIG_3_9),
        (lambda: base_triple(5).entries, golden.BASE_TRIPLE_5),
        (
            lambda: serialize(
                five_case(3, 2, parse(golden.SQUARE_6_4), parse(golden.TWO_PER_COLUMN_3_2))
            ),
            golden.FIVE_CASE_3_2,
        ),
        (
            lambda: serialize(stacked(5, 5, 3, parse(golden.SQUARE_5_3))),
            golden.STACKED_5_5_3,
        ),
    ]
    worst = 0.0
    for build, expected in cases:
        t0 = time.perf_counter()
        got = build()
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert got == expected
        assert dt < 1.0
    print(f"criterion 1 (golden grids byte-exact): PASS "
          f"({len(cases)} grids, slowest {worst * 1000:.1f} ms)")


def test_criterion_2_constant_formulas():
    t0 = time.perf_counter()
    checked = 0
    for m in range(2, 9):
        for k in range(2, 7):
            report = verify(two_per_column(m, k), MagicSpec(m, k * m, 2 * k, 2))
            assert report.ok
            assert report.row_constant == k * (2 * k * m - 1)
            assert report.col_constant == 2 * k * m - 1
            checked += 1
    stacked_checked = 0
    for m in range(3, 7):
        for s in range(3, m + 1):
            for k in range(1, 5):
                if s % 2 == 1 and (k * m) % 2 == 0:
                    continue
                square = magic_square_holes(m, s)
                report = verify(stacked(m, k, s, square), MagicSpec(m, k * m, k * s, s))
                assert report.ok
                assert 2 * report.row_constant == k * s * (k * m * s - 1)
                assert 2 * report.col_constant == s * (k * m * s - 1)
                stacked_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2 (constant formulas): PASS "
          f"({checked} two-per-column + {stacked_checked} stacked cases, {elapsed:.2f}s)")


def test_criterion_3_square_sets():
    t0 = time.perf_counter()
    for m, s, t in [(5, 3, 5), (4, 4, 2), (5, 4, 3), (7, 3, 3)]:
        square = magic_square_holes(m, s)
        result = nmss(m, s, t, square)
        assert len(result.squares) == t
        assert result.constant == s * (m * s * t - 1) // 2
        values = []
        for sq in result.squares:
            run = support.diagonal_run(sq)
            assert run is not None and len(run) == s
            for i in range(m):
                row = [v for v in sq.cells[i] if v is not None]
                col = [sq.cells[p][i] for p in range(m) if sq.cells[p][i] is not None]
                assert len(row) == len(col) == s
                assert sum(row) == sum(col) == result.constant
            values.extend(v for _, _, v in sq.filled())
        assert sorted(values) == list(range(m * s * t))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3 (square sets partition and constants): PASS "
          f"(4 parameter sets, {elapsed:.2f}s)")


def test_criterion_4_products():
    t0 = time.perf_counter()
    for (m, s), (a, b) in [((5, 3), (3, 5)), ((6, 4), (2, 4)), ((5, 3), (3, 3))]:
        square = magic_square_holes(m, s)
        rect = classical_rectangle(a, b)
        out = product(square, rect)
        report = verify(out, MagicSpec(a * m, b * m, b * s, a * s))
        assert report.ok
        total = a * b * m * s
        assert 2 * report.row_constant == (total - 1) * b * s
        assert 2 * report.col_constant == (total - 1) * a * s
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 4 (products): PASS (3 ingredient pairs, {elapsed:.2f}s)")


def test_criterion_5_block_sets():
    t0 = time.perf_counter()
    for a, b, c in [(3, 3, 3), (2, 4, 2)]:
        rects = magic_rectangle_set(a, b, c)
        out = block_set(a, b, c, rects)
        report = verify(out, MagicSpec(a * c, b * c, b, a))
        assert report.ok
        assert 2 * report.row_constant == b * (a * b * c - 1)
        assert 2 * report.col_constant == a * (a * b * c - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5 (block sets): PASS (2 parameter sets, {elapsed:.2f}s)")


def test_criterion_6_oracle_ground_truth():
    worst = 0.0
    for shape, expect_zero in [
        ((3, 3, 2, 2), True),
        ((4, 4, 2, 2), True),
        ((2, 3, 3, 2), True),
        ((4, 6, 3, 2), True),
        ((2, 4, 4, 2), False),
        ((1, 1, 1, 1), False),
    ]:
        t0 = time.perf_counter()
        result = brute_enumerate(*shape, witness_cap=1)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert dt < 60.0
        assert result.exhausted
        if expect_zero:
            assert result.count == 0
        else:
            assert result.count >= 1
            assert verify(result.witnesses[0], MagicSpec(*shape)).ok
    print(f"criterion 6 (oracle ground truth): PASS "
          f"(6 shapes, slowest {worst:.2f}s)")


def test_criterion_7_decide_oracle_consistency():
    t0 = time.perf_counter()
    shapes = support.all_well_shaped(24)
    assert len(shapes) == 224
    verdicts = {"exists": 0, "not-exists": 0, "unknown": 0}
    inconclusive, inconsistent, unknown = [], [], []
    for shape in shapes:
        decision = decide(*shape)
        verdicts[decision.verdict] += 1
        answer = exists_brute(*shape, node_budget=2_000_000)
        if answer == "inconclusive":
            inconclusive.append(shape)
        elif decision.verdict == "unknown":
            m, n, r, s = shape
            unknown.append((shape, answer, decide(n, m, s, r).verdict))
        elif (answer == "yes") != (decision.verdict == "exists"):
            inconsistent.append((shape, decision.verdict, answer))
    elapsed = time.perf_counter() - t0
    assert inconclusive == []
    assert inconsistent == []
    # each shape left unknown has a witness, and its transpose is decided
    assert unknown == [(shape, "yes", "exists") for shape in [
        (6, 3, 2, 4), (8, 4, 2, 4), (9, 3, 2, 6), (10, 5, 2, 4),
        (12, 3, 2, 8), (12, 4, 2, 6), (12, 6, 2, 4)]]
    assert elapsed < 600.0
    print(f"criterion 7 (decide vs oracle, mr<=24): PASS "
          f"({len(shapes)} shapes, {verdicts}, {elapsed:.1f}s)")


def test_criterion_8_constructive_honesty(tmp_path):
    # Budget policy: constructions are cheap, so cost sits in ingredient
    # search.  One flat cap keeps the sweep bounded for every route; a
    # five-case square is lifted from its strip, so FiveCase searches only
    # the strip's MS(m;s), as Stacked does.  Whatever the budget cannot
    # reach is skipped honestly and counted.
    cache = IngredientCache(tmp_path / "sweep-cache.mrx")
    t0 = time.perf_counter()
    reached = {}
    skipped = {}
    failures = []
    for shape in support.all_well_shaped(200):
        decision = decide(*shape)
        if decision.verdict != "exists":
            continue
        route = decision.route
        try:
            grid = realize(*shape, cache=cache, budget=100_000)
        except SearchBudgetExceeded:
            skipped[route] = skipped.get(route, 0) + 1
            continue
        if not verify(grid, MagicSpec(*shape)).ok:
            failures.append(shape)
        reached[route] = reached.get(route, 0) + 1
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert elapsed < 300.0
    # constructive routes never search, so they must never skip
    assert skipped.get("Trivial", 0) == 0
    assert skipped.get("TwoPerColumn", 0) == 0
    for route in ["Trivial", "Classical", "TwoPerColumn", "Stacked", "FiveCase", "BlockSet"]:
        assert reached.get(route, 0) >= 1, f"no {route} case reached"
    # even rectangles, odd ones with g >= 3 or a side divisible by 3 or 5,
    # and every rectangle set lifted from one are closed forms; what the
    # budget still misses is searched
    assert sum(reached.values()) >= 683
    assert reached["FiveCase"] >= 17
    assert skipped.get("FiveCase", 0) <= 1
    assert reached["BlockSet"] >= 38
    assert skipped.get("BlockSet", 0) == 0
    assert skipped.get("Classical", 0) <= 14
    print(f"criterion 8 (constructive honesty, mr<=200): PASS "
          f"(reached {sum(reached.values())} {reached}, "
          f"skipped {sum(skipped.values())} {skipped}, {elapsed:.1f}s)")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(1000):
        g = support.random_grid(rng)
        assert parse(serialize(g)) == g

    pool = [
        (parse(golden.TWO_PER_COLUMN_5_2), (5, 10, 4, 2)),
        (parse(golden.TWO_PER_COLUMN_4_3), (4, 12, 6, 2)),
        (parse(golden.SQUARE_5_3), (5, 5, 3, 3)),
        (parse(golden.SQUARE_6_4), (6, 6, 4, 4)),
        (parse(golden.STACKED_5_5_3), (5, 25, 15, 3)),
        (parse(golden.FIVE_CASE_3_2), (6, 9, 6, 4)),
        (HoleyGrid.from_rows([[0]]), (1, 1, 1, 1)),
    ]
    disagreements = 0
    for _ in range(1000):
        g, shape = pool[rng.randrange(len(pool))]
        for _ in range(rng.randint(1, 3)):
            g = support.mutate(g, rng)
        ours = verify(g, MagicSpec(*shape)).ok
        theirs = support.naive_check(g, *shape)
        if ours != theirs:
            disagreements += 1
    assert disagreements == 0

    built = 0
    for s in range(1, 11):
        for k in range(1, 12):
            if (s % 2 == 1 and k % 2 == 0) or (s == 1 and k > 1):
                with pytest.raises(ParityError):
                    kotzig(s, k)
                continue
            arr = kotzig(s, k)
            for row in arr.entries:
                assert sorted(row) == list(range(k))
            target = s * (k - 1)
            assert all(2 * sum(col) == target for col in zip(*arr.entries))
            built += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 9 (property suite): PASS "
          f"(1000 round-trips, 1000 mutation agreements, "
          f"{built} arrays, {elapsed:.2f}s)")
