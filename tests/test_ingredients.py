import contextlib
import hashlib
import math
import os
import pickle
import stat
import subprocess
import sys
import tracemalloc

import pytest

from holeymagic import (
    BadIngredient,
    CorruptCache,
    DiagonalProfile,
    HoleyGrid,
    HoleyMagicError,
    IngredientCache,
    MagicSpec,
    NotConstructible,
    SearchBudgetExceeded,
    parse,
    realize,
    serialize,
    verify,
)
from holeymagic import existence, ingredients
from holeymagic.construct import block_set
from holeymagic.ingredients import (
    _run_top,
    _search_square,
    classical_rectangle,
    magic_rectangle_set,
    magic_square_holes,
    profile_satisfied,
    require_magic,
    require_ms,
)

import golden
import support


# --- holey magic squares ---------------------------------------------------


def test_catalog_squares_byte_exact():
    assert serialize(magic_square_holes(5, 3)) == golden.SQUARE_5_3
    assert serialize(magic_square_holes(6, 4)) == golden.SQUARE_6_4


def test_trivial_square():
    assert magic_square_holes(1, 1) == HoleyGrid.from_rows([[0]])


def test_square_existence_gates():
    with pytest.raises(NotConstructible):
        magic_square_holes(4, 3)  # s odd needs m odd
    with pytest.raises(NotConstructible):
        magic_square_holes(5, 2)
    with pytest.raises(NotConstructible):
        magic_square_holes(3, 4)  # s > m
    with pytest.raises(NotConstructible):
        magic_square_holes(1, 1, DiagonalProfile(((1, 0, 1),)))
    with pytest.raises(ValueError):
        magic_square_holes(0, 1)


@pytest.mark.parametrize("fetch", [
    lambda: magic_square_holes(7.0, 3, budget=10),
    lambda: classical_rectangle(7.0, 9, budget=10),
    lambda: magic_rectangle_set(3.0, 5, 1, budget=10),
    lambda: magic_square_holes(True, 1),
], ids=["ms_float", "mr_float", "mrs_float", "ms_bool"])
def test_ingredient_sides_are_positive_ints(fetch):
    # the rule of existence.necessary_conditions: a float side must not
    # reach a search or a closed form, and a bool is not the integer 1
    with pytest.raises(ValueError, match="must be positive integers"):
        fetch()


def test_searched_square_properties():
    for m, s in [(3, 3), (5, 4), (7, 3), (6, 6)]:
        g = magic_square_holes(m, s)
        assert verify(g, MagicSpec(m, m, s, s)).ok
        run = support.diagonal_run(g)
        assert run is not None and len(run) == s
        assert require_ms(g, m, s) == run[::-1]


def test_require_ms_labels_from_the_top_of_the_run():
    assert require_ms(parse(golden.SQUARE_5_3), 5, 3) == [4, 3, 2]
    with pytest.raises(BadIngredient, match="ingredient"):
        require_ms(parse(golden.TWO_PER_COLUMN_3_2), 3, 2)  # not square
    # columns 0 and 1 swapped: still an MS(5;3), but on every diagonal
    with pytest.raises(BadIngredient, match="is not 3-diagonal"):
        require_ms(support.swap_columns(parse(golden.SQUARE_5_3), 0, 1), 5, 3)


def test_run_top_wraps():
    assert _run_top({4, 0, 1}, 5) == 1
    assert _run_top({0, 2}, 5) is None
    assert _run_top(set(), 5) is None
    assert _run_top({0, 1, 2, 3, 4}, 5) == 4


def test_search_is_deterministic():
    a = magic_square_holes(7, 4)
    b = magic_square_holes(7, 4)
    assert a == b


def test_profile_search():
    profile = DiagonalProfile(((1, 0, 7),))
    g = magic_square_holes(8, 4, profile)
    assert verify(g, MagicSpec(8, 8, 4, 4)).ok
    assert profile_satisfied(g, profile)


@pytest.mark.parametrize("m, s, run, reason", [
    (4, 4, (5, 0, 19), "the run needs 5 diagonals and there are 4"),
    (7, 3, (4, 0, 27), "the run needs 4 diagonals and there are 3"),
    (7, 3, (1, 0, 4), "the run holds 1 x 7 = 7 values, not 5"),
], ids=["5_0_19_on_4_4", "4_0_27_on_7_3", "1_0_4_on_7_3"])
def test_unfit_profile_is_refused_unsearched(monkeypatch, m, s, run, reason):
    # every diagonal of an s-diagonal square holds m values, so a run of q
    # diagonals holds exactly qm of them and q can be at most s
    calls = _counting_kernel(monkeypatch)
    with pytest.raises(NotConstructible) as info:
        magic_square_holes(m, s, DiagonalProfile((run,)))
    assert str(info.value).endswith(reason)
    assert calls == []


def test_tiny_budget_raises():
    with pytest.raises(SearchBudgetExceeded):
        magic_square_holes(7, 6, budget=50)


@pytest.mark.parametrize("budget", [-1, 2.7, "5", True, None])
def test_budget_must_be_an_int_of_at_least_zero(tmp_path, monkeypatch, budget):
    # checked once, at the entry: never coerced, never searched, and a
    # negative budget never reads as "nothing was searched"
    calls = _counting_kernel(monkeypatch)
    path = tmp_path / "ing.mrx"
    for cache in (None, IngredientCache(path)):
        with pytest.raises(ValueError, match=r"^budget must be an integer >= 0$"):
            magic_square_holes(7, 4, cache=cache, budget=budget)
    with pytest.raises(ValueError, match=r"^budget must be an integer >= 0$"):
        realize(7, 14, 8, 4, budget=-3)  # the Stacked route fetches MS(7;4)
    assert calls == []
    assert not path.exists()


def test_budget_zero_spends_one_node(tmp_path, monkeypatch):
    calls = _counting_kernel(monkeypatch)
    shared = IngredientCache(tmp_path / "ing.mrx")
    # a fresh search, the same search on a cache, then its remembered
    # failure: 28 cells cannot be placed in 0 nodes, so none walks
    for cache in (None, shared, shared):
        with pytest.raises(SearchBudgetExceeded) as info:
            magic_square_holes(7, 4, cache=cache, budget=0)
        assert (info.value.ingredient, info.value.nodes) == ("MS(7;4)", 1)
        assert str(info.value) == "MS(7;4): node budget exhausted after 1 nodes"
    assert calls == []


@pytest.mark.parametrize("budget", [0, 1, 9, 80, 700])
def test_every_search_failure_spent_at_least_one_node(tmp_path, budget):
    # every square that searches, with and without a profile, fresh and
    # then remembered by a cache: a budget failure reports budget + 1 nodes
    fetches = [(m, s, None) for m in range(4, 12) for s in range(1, m)
               if existence.ms_exists(m, s)]
    fetches += [(m, s, DiagonalProfile(((s // 4, 0, m * (s // 4) - 1),)))
                for m, s in [(6, 4), (8, 4), (10, 4), (12, 6)]]
    cache = IngredientCache(tmp_path / "ing.mrx")
    failures = 0
    for m, s, profile in fetches:
        for where in (None, cache, cache):
            try:
                magic_square_holes(m, s, profile, cache=where, budget=budget)
            except SearchBudgetExceeded as exc:
                assert exc.nodes == budget + 1 >= 1, (m, s, profile, exc)
                failures += 1
    assert failures


def test_profile_validation():
    with pytest.raises(ValueError):
        DiagonalProfile(((0, 0, 5),))
    with pytest.raises(ValueError):
        DiagonalProfile(((2, 0, 4),))  # five values split in two
    with pytest.raises(ValueError):
        DiagonalProfile(((1, 0, 5), (1, 6, 11)))  # two runs
    with pytest.raises(ValueError):
        DiagonalProfile(())
    with pytest.raises(ValueError):
        DiagonalProfile(((1, 12, 17),))  # not the lowest values
    assert DiagonalProfile(((2, 0, 11),)).tag() == "2:0:11"


@pytest.mark.parametrize("run", [(1.5, 0, 2), (2, 0, True), (True, 0, 3), (1, 0, 3.0)])
def test_profile_runs_are_ints(run):
    # a float or bool entry is refused, not read as a profile that no
    # square meets, nor cached under a tag of its own ("True:0:3")
    with pytest.raises(ValueError, match="bad profile run"):
        DiagonalProfile((run,))


def test_profile_satisfied_reads_content():
    g = parse(golden.SQUARE_6_4)
    assert profile_satisfied(g, DiagonalProfile(((1, 0, 5),)))
    assert not profile_satisfied(g, DiagonalProfile(((1, 0, 11),)))
    assert not profile_satisfied(g, DiagonalProfile(((2, 0, 11),)))
    assert not profile_satisfied(parse(golden.TWO_PER_COLUMN_3_2), DiagonalProfile(((1, 0, 5),)))
    # the Siamese MS(3;3) holds 0..8 on its three broken diagonals, but no
    # diagonal holds a block of three consecutive values
    assert not profile_satisfied(magic_square_holes(3, 3), DiagonalProfile(((3, 0, 8),)))


# --- classical rectangles ---------------------------------------------------


def test_classical_trivial_and_gates():
    assert classical_rectangle(1, 1) == HoleyGrid.from_rows([[0]])
    with pytest.raises(NotConstructible):
        classical_rectangle(2, 2)
    with pytest.raises(NotConstructible):
        classical_rectangle(2, 3)  # mixed parity
    with pytest.raises(NotConstructible):
        classical_rectangle(1, 3)


def test_classical_three_by_five():
    g = classical_rectangle(3, 5)
    report = verify(g, MagicSpec(3, 5, 5, 3))
    assert report.ok
    assert report.row_constant == 35
    assert report.col_constant == 21
    assert support.naive_check(g, 3, 5, 5, 3)


def test_classical_orientation():
    g = classical_rectangle(5, 3)
    assert verify(g, MagicSpec(5, 3, 3, 5)).ok


def test_classical_deterministic():
    assert classical_rectangle(4, 6) == classical_rectangle(4, 6)


# --- magic rectangle sets ---------------------------------------------------


def test_mrs_gates():
    with pytest.raises(NotConstructible):
        magic_rectangle_set(2, 2, 1)
    with pytest.raises(NotConstructible):
        magic_rectangle_set(1, 5, 3)
    with pytest.raises(NotConstructible):
        magic_rectangle_set(3, 4, 2)  # mixed parity
    with pytest.raises(NotConstructible):
        magic_rectangle_set(3, 3, 2)  # odd sides, even count
    # long side first is refused as malformed, not as a nonexistence claim:
    # MRS(3,5;1) exists and its transposed members would do
    for abc in [(5, 3, 1), (5, 3, 3), (4, 2, 2), (5, 2, 1)]:
        with pytest.raises(ValueError, match="short side first"):
            magic_rectangle_set(*abc)


def test_mrs_single_member_is_magic_square():
    (g,) = magic_rectangle_set(3, 3, 1)
    report = verify(g, MagicSpec(3, 3, 3, 3))
    assert report.ok
    assert report.row_constant == 12


def test_mrs_three_members():
    rects = magic_rectangle_set(3, 3, 3)
    assert len(rects) == 3
    values = []
    for rect in rects:
        for i in range(3):
            assert sum(rect.cells[i]) == 39
            assert sum(rect.cells[p][i] for p in range(3)) == 39
        values.extend(v for _, _, v in rect.filled())
    assert sorted(values) == list(range(27))


def test_mrs_even_pair():
    rects = magic_rectangle_set(2, 4, 2)
    values = sorted(v for rect in rects for _, _, v in rect.filled())
    assert values == list(range(16))
    for rect in rects:
        for i in range(2):
            assert 2 * sum(rect.cells[i]) == 4 * 15
        for j in range(4):
            assert 2 * (rect.cells[0][j] + rect.cells[1][j]) == 2 * 15


# --- closed forms -----------------------------------------------------------
# A budget of one node fails any search, so these calls prove that no
# search ran.


def test_closed_form_rectangles():
    # every pair mr_exists allows but odd coprime ones prime to 15; a side
    # divisible by 3 or 5 lifts MR(a,3), MR(a,5), MR(3,b) or MR(5,b)
    built = 0
    for a in range(2, 301):
        for b in range(2, 600 // a + 1):
            if (a + b) % 2 or a + b <= 5 or (a % 2 and math.gcd(a, b) == 1
                                             and a * b % 3 and a * b % 5):
                continue
            g = classical_rectangle(a, b, budget=1)
            assert verify(g, MagicSpec(a, b, b, a)).ok, (a, b)
            assert support.naive_check(g, a, b, b, a), (a, b)
            built += 1
    assert built > 400


def test_closed_form_rectangles_with_three_or_five_rows(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    built = 0
    for short in (3, 5):
        for n in range(short + 2, 152, 2):
            if math.gcd(short, n) > 1:
                continue
            for a, b in [(short, n), (n, short)]:
                g = classical_rectangle(a, b, budget=1)
                assert verify(g, MagicSpec(a, b, b, a)).ok, (a, b)
                assert support.naive_check(g, a, b, b, a), (a, b)
                built += 1
    assert calls == []
    assert built == 218  # 50 pairs with 3 rows and 59 with 5, both orientations
    # a short side of 7 or more, with both sides prime to 15, has no
    # closed form
    for a, b in [(7, 11), (11, 7), (7, 151), (11, 13)]:
        assert ingredients._closed_rectangle(a, b) is None


# Signed-array closed forms, pinned: MR(3,5) from the 3-row rule, MR(5,7)
# from the catalog.
SIGNED_MR_3_5 = [(7, 8, 9, 5, 6), (10, 11, 0, 13, 1), (4, 2, 12, 3, 14)]
CATALOG_MR_5_7 = [(34, 10, 27, 1, 16, 31, 0), (6, 19, 29, 8, 25, 4, 28),
                  (12, 23, 2, 17, 32, 11, 22), (13, 30, 9, 26, 5, 15, 21),
                  (20, 3, 18, 33, 7, 24, 14)]


@pytest.mark.parametrize("rows", [SIGNED_MR_3_5, CATALOG_MR_5_7], ids=["mr_3_5", "mr_5_7"])
def test_pinned_closed_form_odd_rectangles(rows):
    a, b = len(rows), len(rows[0])
    assert classical_rectangle(a, b) == HoleyGrid.from_rows(rows)
    assert classical_rectangle(b, a) == HoleyGrid.from_rows(zip(*rows))


# sha256 of "a b\n" and the closed form's MRX text ("None\n" when it has
# none) for every pair mr_exists allows with ab <= 600, a then b ascending;
# frozen before the odd sides took one divisor-lift rule.
CLOSED_FORMS_600 = "07a42609057345377801016da5374897a6fd573540d4e462f3b45f551277e56a"


def test_closed_form_bytes_pinned():
    h = hashlib.sha256()
    pairs = nones = 0
    for a in range(1, 601):
        for b in range(1, 600 // a + 1):
            if not existence.mr_exists(a, b):
                continue
            grid = ingredients._closed_rectangle(a, b)
            h.update(f"{a} {b}\n".encode())
            h.update(("None\n" if grid is None else serialize(grid)).encode())
            pairs += 1
            nones += grid is None
    assert (pairs, nones) == (1371, 92)
    assert h.hexdigest() == CLOSED_FORMS_600


def test_closed_form_even_rectangle_sets():
    for a in range(2, 31, 2):
        for b in range(max(a, 4), 31, 2):
            for c in range(1, 6):
                block_set(a, b, c, magic_rectangle_set(a, b, c, budget=1))


def test_closed_form_odd_rectangle_sets():
    built = 0
    for a in range(3, 16, 2):
        for b in range(a, 16, 2):
            if math.gcd(a, b) < 3:
                continue
            for c in range(1, 10, 2):
                grid = block_set(a, b, c, magic_rectangle_set(a, b, c, budget=1))
                assert support.naive_check(grid, a * c, b * c, b, a), (a, b, c)
                built += 1
    assert built == 55  # 11 pairs, five counts each


def test_closed_form_full_squares():
    for m in range(3, 41):
        require_ms(magic_square_holes(m, m, budget=1), m, m)


# --- ingredient cache -------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = IngredientCache(tmp_path / "ing.mrx")
    square = parse(golden.SQUARE_5_3)
    assert cache.load("ms", (5, 3)) is None
    cache.store("ms", (5, 3), square)
    assert cache.load("ms", (5, 3)) == square
    # a second entry must not clobber the first
    rect = classical_rectangle(3, 5)
    cache.store("mr", (3, 5), rect)
    assert cache.load("ms", (5, 3)) == square
    assert cache.load("mr", (3, 5)) == rect


def test_cache_profile_keys_are_distinct(tmp_path):
    cache = IngredientCache(tmp_path / "ing.mrx")
    profile = DiagonalProfile(((1, 0, 7),))
    g = magic_square_holes(8, 4, profile)
    cache.store("ms", (8, 4), g, profile)
    assert cache.load("ms", (8, 4)) is None
    assert cache.load("ms", (8, 4), profile) == g


def test_cache_speeds_up_searches(tmp_path):
    path = tmp_path / "ing.mrx"
    first = magic_square_holes(7, 4, cache=path)
    again = magic_square_holes(7, 4, cache=IngredientCache(path))
    assert first == again
    assert path.exists()


def test_cache_miss_on_missing_or_empty_file(tmp_path):
    cache = IngredientCache(tmp_path / "nowhere.mrx")
    assert cache.load("ms", (5, 3)) is None
    empty = tmp_path / "empty.mrx"
    empty.write_text("")
    assert IngredientCache(empty).load("ms", (5, 3)) is None


def test_cache_detects_tampered_row(tmp_path):
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    cache.store("ms", (5, 3), parse(golden.SQUARE_5_3))
    text = path.read_text()
    assert ". . 2 10 9\n" in text
    path.write_text(text.replace(". . 2 10 9\n", ". . 4 10 9\n"))
    with pytest.raises(CorruptCache):
        cache.load("ms", (5, 3))


def test_cache_rejects_malformed_file(tmp_path):
    path = tmp_path / "ing.mrx"
    path.write_text("not a cache\n")
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("ms", (5, 3))
    path.write_text("KEY ms 5 3 -\n5 5\ntruncated\n")
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("ms", (5, 3))
    path.write_text("KEY ms 5 3 -\n")
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("ms", (5, 3))
    path.write_text("KEY ms five 3 -\n" + golden.SQUARE_5_3)
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("ms", (5, 3))
    # "²" passes str.isdigit() but int() rejects it
    path.write_text("KEY mr 4 6 -\n² 6\n")
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("mr", (4, 6))
    path.write_bytes(b"KEY mr 4 6 -\n4 6\n\xff\xfe 1\n")
    with pytest.raises(CorruptCache):
        IngredientCache(path).load("mr", (4, 6))
    # a store reads the file too, and appends nothing to one it cannot
    path.write_bytes(b"KEY ms 7 3 -\n\xff\xfe\n")
    with pytest.raises(CorruptCache, match="undecodable bytes"):
        IngredientCache(path).store("ms", (5, 3), parse(golden.SQUARE_5_3))
    assert path.read_bytes() == b"KEY ms 7 3 -\n\xff\xfe\n"
    # a valid MS(6;4) whose diagonal 0 does not hold 0..11
    path.write_text("KEY ms 6 4 2:0:11\n" + golden.SQUARE_6_4)
    with pytest.raises(CorruptCache, match="violates profile 2:0:11"):
        IngredientCache(path).load("ms", (6, 4), DiagonalProfile(((2, 0, 11),)))
    path.write_text("KEY mrs 2 4 1 -\n" + serialize(classical_rectangle(2, 4)))
    with pytest.raises(CorruptCache, match="unknown cache kind 'mrs'"):
        IngredientCache(path).load("mrs", (2, 4, 1))


def test_cached_mrs_roundtrip(tmp_path, monkeypatch):
    # a set lifts its base rectangle; an odd coprime base with both sides
    # at least 7 and prime to 15 is refused before the cache or the kernel
    # is reached
    calls = _counting_kernel(monkeypatch)
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    for fetch in (lambda: magic_rectangle_set(7, 11, 3, cache=cache, budget=1_000),
                  lambda: magic_rectangle_set(7, 11, 5, cache=cache, budget=1_000),
                  lambda: classical_rectangle(11, 7, cache=cache, budget=1_000)):
        with pytest.raises(SearchBudgetExceeded) as info:
            fetch()
        assert info.value.nodes == 0
    assert calls == []
    assert not path.exists()


# A three-member set as older versions cached it, under its own key kind.
OLD_MRS_3_3_3_ENTRY = """\
KEY mrs 3 3 3 -
3 3
0 13 26
14 24 1
25 2 12
3 3
3 16 20
17 18 4
19 5 15
3 3
6 10 23
11 21 7
22 8 9
"""


def test_cache_with_old_mrs_entry_serves_other_keys(tmp_path):
    path = tmp_path / "ing.mrx"
    rect = classical_rectangle(3, 5)
    path.write_text("KEY mr 3 5 -\n" + serialize(rect) + OLD_MRS_3_3_3_ENTRY
                    + "KEY ms 5 3 -\n" + golden.SQUARE_5_3)
    cache = IngredientCache(path)
    assert cache.load("mr", (3, 5)) == rect
    assert cache.load("ms", (5, 3)) == parse(golden.SQUARE_5_3)
    # a store keeps the old entry as it was
    cache.store("ms", (7, 4), magic_square_holes(7, 4))
    assert OLD_MRS_3_3_3_ENTRY in path.read_text()
    assert cache.load("mr", (3, 5)) == rect


def test_tampered_header_does_not_hide_the_next_key(tmp_path):
    # a header claiming ten rows must not swallow the KEY line after them
    path = tmp_path / "ing.mrx"
    rect = serialize(classical_rectangle(3, 5))
    assert rect.startswith("3 5\n")
    path.write_text("KEY mr 3 5 -\n" + rect.replace("3 5\n", "10 5\n", 1)
                    + "KEY ms 5 3 -\n" + golden.SQUARE_5_3)
    cache = IngredientCache(path)
    assert cache.load("ms", (5, 3)) == parse(golden.SQUARE_5_3)
    with pytest.raises(CorruptCache):
        cache.load("mr", (3, 5))


@pytest.mark.parametrize("damage", ["bad header", "rows cut short"])
def test_corrupt_entry_fails_only_its_own_key(tmp_path, damage):
    path = tmp_path / "ing.mrx"
    lines = serialize(classical_rectangle(3, 5)).splitlines(keepends=True)
    if damage == "bad header":
        lines[0] = "3 five\n"
    else:
        del lines[2:]
    corrupt = "KEY mr 3 5 -\n" + "".join(lines)
    path.write_text(corrupt + "KEY ms 5 3 -\n" + golden.SQUARE_5_3)
    cache = IngredientCache(path)
    assert cache.load("ms", (5, 3)) == parse(golden.SQUARE_5_3)
    square = magic_square_holes(7, 4)
    cache.store("ms", (7, 4), square)
    assert path.read_text().startswith(corrupt + "KEY ms 5 3 -\n")
    with pytest.raises(CorruptCache):
        cache.load("mr", (3, 5))
    assert cache.load("ms", (5, 3)) == parse(golden.SQUARE_5_3)
    assert cache.load("ms", (7, 4)) == square


def test_store_after_a_cut_last_line_keeps_the_new_key(tmp_path):
    # the file ends inside a row: the next entry must start on a line of its own
    path = tmp_path / "ing.mrx"
    path.write_text("KEY ms 5 3 -\n" + golden.SQUARE_5_3[:-4])
    cache = IngredientCache(path)
    rect = classical_rectangle(3, 5)
    cache.store("mr", (3, 5), rect)
    assert path.read_text() == ("KEY ms 5 3 -\n" + golden.SQUARE_5_3[:-4] + "\n"
                                + "KEY mr 3 5 -\n" + serialize(rect))
    assert cache.load("mr", (3, 5)) == rect
    with pytest.raises(CorruptCache):
        cache.load("ms", (5, 3))


def _closed_forms(path):
    return (classical_rectangle(9, 15, cache=path, budget=1),
            magic_square_holes(6, 6, cache=path, budget=1),
            magic_rectangle_set(4, 6, 3, cache=path, budget=1))


def test_closed_forms_skip_the_cache(tmp_path):
    path = tmp_path / "ing.mrx"
    built = _closed_forms(path)
    assert not path.exists()
    assert built == _closed_forms(None)
    corrupt = tmp_path / "corrupt.mrx"
    corrupt.write_text("not a cache\n")
    assert _closed_forms(corrupt) == built


def test_only_searched_ingredients_touch_the_cache(tmp_path, monkeypatch):
    calls = []

    def spy(name):
        method = getattr(IngredientCache, name)

        def wrapped(self, kind, params, *rest):
            calls.append((name, kind, tuple(params)))
            return method(self, kind, params, *rest)
        return wrapped

    for name in ("load", "store"):
        monkeypatch.setattr(IngredientCache, name, spy(name))
    cache = IngredientCache(tmp_path / "ing.mrx")
    magic_square_holes(5, 3, cache=cache)  # catalog
    _closed_forms(cache)
    assert calls == []

    searched = [lambda: [magic_square_holes(7, 4, cache=cache)],
                lambda: [magic_square_holes(7, 3, cache=cache)]]
    keys = [("ms", (7, 4)), ("ms", (7, 3))]
    first = [fetch() for fetch in searched]
    assert calls == [(op, *key) for key in keys for op in ("load", "store")]
    # a rectangle or set with no construction is refused without the cache
    del calls[:]
    for refused in (lambda: classical_rectangle(11, 7, cache=cache, budget=1_000),
                    lambda: magic_rectangle_set(7, 11, 3, cache=cache, budget=1_000)):
        with pytest.raises(SearchBudgetExceeded):
            refused()
    assert calls == []
    # a hit neither searches nor stores
    del calls[:]
    monkeypatch.setattr(ingredients, "_search_assignment", None)
    assert [fetch() for fetch in searched] == first
    assert calls == [("load", *key) for key in keys]


def test_realize_stores_only_searched_keys(tmp_path):
    # towers over the searched MS(7;3); the product of the catalog MS(5;3)
    # and the closed-form MR(3,5) stores nothing
    path = tmp_path / "ing.mrx"
    realize(15, 25, 15, 9, cache=path)
    assert not path.exists()
    realize(7, 21, 9, 3, cache=path)
    assert [line for line in path.read_text().splitlines()
            if line.startswith("KEY ")] == ["KEY ms 7 3 -"]


def test_cache_sees_same_size_tampering_after_store(tmp_path):
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    cache.store("ms", (5, 3), parse(golden.SQUARE_5_3))
    assert cache.load("ms", (5, 3)) is not None
    before = os.stat(path)
    text = path.read_bytes()
    at = text.index(b". . 2 10 9\n") + len(b". . ")
    with open(path, "r+b") as fh:  # same length, same inode, same mtime
        fh.seek(at)
        fh.write(b"4")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino)
    with pytest.raises(CorruptCache):
        cache.load("ms", (5, 3))


def test_identical_store_leaves_file_alone(tmp_path):
    path = tmp_path / "ing.mrx"
    square = parse(golden.SQUARE_5_3)
    IngredientCache(path).store("ms", (5, 3), square)
    IngredientCache(path).store("mr", (3, 5), classical_rectangle(3, 5))
    before, text = os.stat(path), path.read_bytes()
    for cache in (IngredientCache(path), IngredientCache(path)):
        cache.load("mr", (3, 5))
        cache.store("ms", (5, 3), square)
        cache.store("ms", (5, 3), square)
    after = os.stat(path)
    assert path.read_bytes() == text
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_cache_refuses_a_fifo_without_opening_it(tmp_path):
    # opening a FIFO blocks until a writer comes, so this runs in a child
    fifo = tmp_path / "ing.mrx"
    os.mkfifo(fifo)
    script = (
        "import sys\n"
        "from holeymagic import CacheError, IngredientCache, parse\n"
        "cache = IngredientCache(sys.argv[1])\n"
        "grid = parse(sys.argv[2])\n"
        "for op in (lambda: cache.load('ms', (5, 3)), lambda: cache.store('ms', (5, 3), grid)):\n"
        "    try:\n"
        "        op()\n"
        "    except CacheError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(ingredients.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, str(fifo), golden.SQUARE_5_3],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"cannot read cache {fifo}: not a regular file\n" * 2
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_store_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target = tmp_path / "pantry.mrx"
    link = tmp_path / "ing.mrx"
    link.symlink_to(target.name)  # dangling until the first store
    cache = IngredientCache(link)
    cache.store("ms", (5, 3), parse(golden.SQUARE_5_3))
    os.chmod(target, 0o644)
    cache.store("mr", (3, 5), classical_rectangle(3, 5))
    assert link.is_symlink() and os.readlink(link) == target.name
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o644
    assert [line for line in target.read_text().splitlines()
            if line.startswith("KEY ")] == ["KEY ms 5 3 -", "KEY mr 3 5 -"]
    assert serialize(IngredientCache(target).load("ms", (5, 3))) == golden.SQUARE_5_3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ing.mrx", "pantry.mrx"]


def test_a_new_cache_file_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        fresh, kept = tmp_path / "fresh.mrx", tmp_path / "kept.mrx"
        IngredientCache(fresh).store("ms", (5, 3), parse(golden.SQUARE_5_3))
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644
        kept.write_text("")
        os.chmod(kept, 0o640)
        IngredientCache(kept).store("ms", (5, 3), parse(golden.SQUARE_5_3))
        assert stat.S_IMODE(os.stat(kept).st_mode) == 0o640
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.mrx", "kept.mrx"]



@pytest.mark.parametrize("kind, params", [
    ("ms", (7.0, 3)), ("ms", (-1, 3)), ("ms", (True, 3)), ("m s", (7, 3)),
    ("m\ns", (7, 3)), ("m\rs", (7, 3))])
def test_a_key_the_reader_would_refuse_is_never_written(tmp_path, kind, params):
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    square = parse(golden.SQUARE_5_3)
    cache.store("ms", (5, 3), square)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        cache.store(kind, params, square)
    assert path.read_bytes() == before
    assert cache.load("ms", (5, 3)) == square
    assert cache.load("ms", (7, 3)) is None


def test_a_store_appends_and_the_newer_entry_wins(tmp_path):
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    cache.store("ms", (5, 3), parse(golden.SQUARE_5_3))
    square = magic_square_holes(7, 3)
    flipped = HoleyGrid.from_rows(zip(*square.cells))  # another valid MS(7;3)
    assert flipped != square
    for grid in (square, flipped):
        before = path.read_bytes()
        cache.store("ms", (7, 3), grid)
        assert path.read_bytes() == before + f"KEY ms 7 3 -\n{serialize(grid)}".encode()
        assert cache.load("ms", (7, 3)) == grid
    assert IngredientCache(path).load("ms", (7, 3)) == flipped
    assert cache.load("ms", (5, 3)) == parse(golden.SQUARE_5_3)


# Every full MR(a,b) with even sides from 2 to 18 but (2,2): 80 keys.
EVEN_PAIRS = [(a, b) for a in range(2, 19, 2) for b in range(2, 19, 2) if a + b > 4]
CHILD = """\
import os, sys
from holeymagic import IngredientCache
from holeymagic.ingredients import classical_rectangle
role, path, done, *pairs = sys.argv[1:]
pairs = [tuple(map(int, p.split(","))) for p in pairs]
cache = IngredientCache(path)
grids = [classical_rectangle(a, b) for a, b in pairs]
print("ready", flush=True)
sys.stdin.readline()
if role == "writer":
    for params, grid in zip(pairs, grids):
        cache.store("mr", params, grid)
else:  # load every key until the writers are done, then once more
    passes = 0
    while passes == 0 or not os.path.exists(done):
        assert all(cache.load("mr", p) in (None, g) for p, g in zip(pairs, grids))
        passes += 1
    print(passes)
"""


def test_concurrent_writers_keep_every_entry(tmp_path):
    assert len(EVEN_PAIRS) == 80
    path, done = tmp_path / "ing.mrx", tmp_path / "done"
    src = os.path.dirname(os.path.dirname(ingredients.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [[sys.executable, "-c", CHILD, role, str(path), str(done)]
            + [f"{a},{b}" for a, b in pairs]
            for role, pairs in [("writer", EVEN_PAIRS[:40]), ("writer", EVEN_PAIRS[40:]),
                                ("reader", EVEN_PAIRS)]]
    with contextlib.ExitStack() as stack:
        children = []
        for args in argv:
            children.append(stack.enter_context(subprocess.Popen(
                args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=env)))
            stack.callback(children[-1].kill)  # a no-op once the child is done
        for child in children:  # every child is set up before any store starts
            assert child.stdout.readline() == "ready\n"
        for child in children:
            child.stdin.write("go\n")
            child.stdin.close()
        for child in children[:2]:
            assert (child.wait(timeout=60), child.stderr.read()) == (0, "")
        done.touch()
        reader = children[2]
        assert (reader.wait(timeout=60), reader.stderr.read()) == (0, "")
        assert int(reader.stdout.read()) > 0
    keys = [line for line in path.read_text().splitlines() if line.startswith("KEY ")]
    assert sorted(keys) == sorted(f"KEY mr {a} {b} -" for a, b in EVEN_PAIRS)
    cache = IngredientCache(path)
    for a, b in EVEN_PAIRS:
        require_magic(cache.load("mr", (a, b)), MagicSpec(a, b, b, a), f"MR({a},{b})")


def _counting_kernel(monkeypatch):
    """Count the search kernel's calls in the returned list."""
    calls = []
    kernel = ingredients._search_assignment

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)
    monkeypatch.setattr(ingredients, "_search_assignment", counted)
    return calls


def test_a_square_search_runs_dry_once_per_cache(tmp_path, monkeypatch):
    calls = _counting_kernel(monkeypatch)
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)

    def kernel_calls_until_dry(budget, profile=None):
        del calls[:]
        with pytest.raises(SearchBudgetExceeded) as info:
            magic_square_holes(7, 4, profile, cache=cache, budget=budget)
        label = "MS(7;4)" + (" profile 1:0:6" if profile else "")
        assert (info.value.ingredient, info.value.nodes) == (label, budget + 1)
        return len(calls)

    # 35 815 nodes is the least budget that finds MS(7;4)
    assert kernel_calls_until_dry(35_814) > 0
    assert kernel_calls_until_dry(35_814) == 0
    assert kernel_calls_until_dry(1_000) == 0  # a smaller budget cuts the same walk
    # a profiled square is another search; below 28 nodes (7 x 4 cells)
    # it would not walk
    assert kernel_calls_until_dry(28, DiagonalProfile(((1, 0, 6),))) > 0
    assert not path.exists()  # failures are never written
    # memory is per instance: a new one on the same path, or the path, searches
    for other in (IngredientCache(path), str(path)):
        del calls[:]
        with pytest.raises(SearchBudgetExceeded):
            magic_square_holes(7, 4, cache=other, budget=1_000)
        assert calls
    del calls[:]
    assert serialize(magic_square_holes(7, 4, cache=cache, budget=35_815)) == SEARCHED_MS_7_4
    assert calls
    assert [line for line in path.read_text().splitlines()
            if line.startswith("KEY ")] == ["KEY ms 7 4 -"]


@pytest.mark.parametrize("profile", [None, DiagonalProfile(((1, 0, 6),))],
                         ids=["plain", "profile"])
def test_a_walk_that_ends_without_a_square_is_inconclusive(tmp_path, monkeypatch, profile):
    # a walk fixes the order of its blocks, so ending it proves nothing:
    # the error carries the nodes spent, never reads as a budget overrun
    # or a nonexistence claim, and a cache does not remember it
    calls = []

    def ended(cell_domain, lines, domains, left):
        calls.append(None)
        return None, left - 5
    monkeypatch.setattr(ingredients, "_search_assignment", ended)
    path = tmp_path / "ing.mrx"
    cache = IngredientCache(path)
    label = "MS(7;4)" + (" profile 1:0:6" if profile else "")
    for walks in (1, 2):
        with pytest.raises(SearchBudgetExceeded) as info:
            magic_square_holes(7, 4, profile, cache=cache, budget=1_000)
        assert (info.value.ingredient, info.value.nodes) == (label, 5)
        assert str(info.value) == f"{label}: the walk ended without a square after 5 nodes"
        assert "budget" not in str(info.value)
        assert len(calls) == walks
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)
    assert not path.exists()


def test_a_square_with_more_cells_than_budget_is_never_set_up(tmp_path, monkeypatch):
    # a walk places at most one cell per node, so 300 003 cells cannot be
    # placed in 1 000 nodes: the search raises before it builds a cell
    calls = _counting_kernel(monkeypatch)
    m = 10 ** 5 + 1
    tracemalloc.start()
    try:
        for cache in (None, IngredientCache(tmp_path / "ing.mrx")):
            with pytest.raises(SearchBudgetExceeded) as info:
                magic_square_holes(m, 3, cache=cache, budget=1_000)
            assert (info.value.ingredient, info.value.nodes) == (f"MS({m};3)", 1_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 1 << 20  # the cell list alone would take tens of MB


@pytest.mark.parametrize("fetch", [
    lambda cache: classical_rectangle(7, 11, cache=cache),
    lambda cache: classical_rectangle(11, 7, cache=cache),
    lambda cache: magic_rectangle_set(7, 11, 3, cache=cache),
    lambda cache: realize(7, 11, 11, 7, cache=cache),
], ids=["mr_7_11", "mr_11_7", "mrs_7_11_3", "realize_7_11_11_7"])
@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_odd_coprime_rectangles_are_refused_unsearched(tmp_path, monkeypatch, fetch, cached):
    # both sides odd, coprime, at least 7 and prime to 15: no closed form,
    # and no search at the default budget; the refusal is inconclusive and
    # touches neither the kernel nor the cache
    calls = _counting_kernel(monkeypatch)
    for name in ("load", "store"):
        monkeypatch.setattr(IngredientCache, name, lambda *args, op=name: calls.append(op))
    path = tmp_path / "ing.mrx"
    with pytest.raises(SearchBudgetExceeded) as info:
        fetch(IngredientCache(path) if cached else None)
    assert info.value.nodes == 0
    label = info.value.ingredient
    assert label in ("MR(7,11)", "MR(11,7)")
    assert str(info.value) == (f"{label}: no construction for odd coprime sides "
                               "both >= 7 and prime to 15; nothing was searched")
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)
    assert calls == []
    assert not path.exists()


@pytest.mark.parametrize("budget", [300, 2_500])
def test_remembered_failures_leave_realize_unchanged(tmp_path, monkeypatch, budget):
    # every exists shape with mr <= 250 (the sweep's range), realized over
    # one cache and over a new instance per call, which remembers nothing:
    # the grids and errors match
    calls = _counting_kernel(monkeypatch)
    shared = IngredientCache(tmp_path / "shared.mrx")
    fresh = tmp_path / "fresh.mrx"

    def outcome(shape, cache):
        try:
            return serialize(realize(*shape, cache=cache, budget=budget))
        except HoleyMagicError as exc:
            return f"{type(exc).__name__}: {exc}"

    searched = {"shared": 0, "fresh": 0}
    for shape in support.all_well_shaped(250):
        if existence.decide(*shape).verdict != "exists":
            continue
        del calls[:]
        remembered = outcome(shape, shared)
        searched["shared"] += len(calls)
        del calls[:]
        assert outcome(shape, IngredientCache(fresh)) == remembered, shape
        searched["fresh"] += len(calls)
    assert searched["shared"] < searched["fresh"]


# --- search kernel invariants -----------------------------------------------

# Outputs of the backtracking search on pinned problems, frozen before the
# kernel was rewritten for speed.  Any kernel must reproduce them byte for
# byte and spend exactly the pinned node counts.
SEARCHED_MS_8_4_PROFILE = """\
8 8
. . . . 0 8 23 31
9 . . . . 7 27 19
20 29 . . . . 2 11
28 16 17 . . . . 1
5 13 30 14 . . . .
. 4 12 24 22 . . .
. . 3 18 15 26 . .
. . . 6 25 21 10 .
"""

SEARCHED_MS_7_4 = """\
7 7
. . . 0 7 20 27
22 . . . 6 9 17
16 26 . . . 4 8
13 15 24 . . . 2
3 12 14 25 . . .
. 1 11 19 23 . .
. . 5 10 18 21 .
"""


PINNED_SEARCHES = [
    # (search at a node budget, least budget that succeeds, frozen output,
    # ingredient named when the budget runs out)
    (lambda budget: [magic_square_holes(8, 4, DiagonalProfile(((1, 0, 7),)), budget=budget)],
     213_750, SEARCHED_MS_8_4_PROFILE, "MS(8;4) profile 1:0:7"),
    # one walk, its blocks on the support diagonals in order
    (lambda budget: [_search_square(7, 4, None, budget)], 35_815, SEARCHED_MS_7_4, "MS(7;4)"),
]


@pytest.mark.parametrize("search, nodes, frozen, ingredient", PINNED_SEARCHES,
                         ids=["ms_8_4_profile", "ms_7_4"])
def test_pinned_node_counts_and_outputs(search, nodes, frozen, ingredient):
    assert "".join(serialize(g) for g in search(nodes)) == frozen
    with pytest.raises(SearchBudgetExceeded) as info:
        search(nodes - 1)
    # the attempt that overruns the budget is the one that raises
    assert str(info.value) == f"{ingredient}: node budget exhausted after {nodes} nodes"
    assert (info.value.ingredient, info.value.nodes) == (ingredient, nodes)
    # callers in worker processes receive it pickled
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)


def _full_rectangle(rows, cols, budget):
    """[grid] of a full rows x cols magic rectangle on 0..rows*cols-1 that
    the kernel finds filling it column by column, or [] when the space is
    exhausted.  The library never searches a rectangle; this is a kernel
    input with one value range and long lines."""
    n = rows * cols
    lines = [(cols * (n - 1) // 2, list(range(i, n, rows))) for i in range(rows)]
    lines += [(rows * (n - 1) // 2, list(range(j * rows, (j + 1) * rows))) for j in range(cols)]
    got, left = ingredients._search_assignment([0] * n, lines, [tuple(range(n))], budget)
    if left < 0:
        raise SearchBudgetExceeded(f"MR({rows},{cols})", budget + 1)
    if got is None:
        return []
    return [HoleyGrid.from_rows(zip(*(got[j * rows:(j + 1) * rows] for j in range(cols))))]


def test_deep_search_does_not_recurse():
    # the search fills all 1400 cells, past the default recursion limit,
    # after exactly 497 356 nodes; a recursive kernel dies on the way
    limit = sys.getrecursionlimit()
    (grid,) = _full_rectangle(2, 700, 497_356)
    assert verify(grid, MagicSpec(2, 700, 700, 2)).ok
    with pytest.raises(SearchBudgetExceeded):
        _full_rectangle(2, 700, 497_355)
    assert sys.getrecursionlimit() == limit


def _differential_searches():
    """(id, search at a node budget, largest budget) for every search the
    windowed kernel is compared on with the reference kernel."""
    for m in range(4, 16):
        for s in range(1, m + 1):
            if existence.ms_exists(m, s):
                yield f"ms_{m}_{s}", lambda b, m=m, s=s: [_search_square(m, s, None, b)], 20_000
    # FiveCase-style profiles: the lowest s/4 diagonals hold the lowest values
    for m, s in [(6, 4), (8, 4), (10, 4), (12, 6)]:
        profile = DiagonalProfile(((s // 4, 0, m * (s // 4) - 1),))
        yield (f"ms_{m}_{s}_profile",
               lambda b, m=m, s=s, p=profile: [_search_square(m, s, p, b)], 20_000)
    for a in range(1, 8):
        for b in range(1, 20):
            if existence.mr_exists(a, b):
                yield f"mr_{a}_{b}", lambda n, a=a, b=b: _full_rectangle(a, b, n), 20_000
    # the benchmark sweep's hot path at its 2 500-node budget: thin squares
    # at its sizes, and two odd coprime rectangles as deep kernel inputs
    for m, s in [(41, 3), (25, 5), (40, 6), (33, 8)]:
        yield f"sweep_ms_{m}_{s}", lambda b, m=m, s=s: [_search_square(m, s, None, b)], 2_500
    for a, b in [(7, 9), (9, 11)]:
        yield f"sweep_mr_{a}_{b}", lambda n, a=a, b=b: _full_rectangle(a, b, n), 2_500
    # no such rectangles: the kernels exhaust the space
    for a, b in EXHAUSTED_RECTANGLES:
        yield f"mr_none_{a}_{b}", lambda n, a=a, b=b: _full_rectangle(a, b, n), 20_000


# (a, b, nodes left of 20 000) for full rectangles that do not exist
EXHAUSTED_RECTANGLES = {(2, 2): 19_986, (2, 3): 19_926, (3, 2): 19_898, (2, 5): 14_617}


DIFFERENTIAL_SEARCHES = list(_differential_searches())
# each search runs at its largest budget and at one smaller one, in turn
DIFFERENTIAL_BUDGETS = [1, 2, 9, 80, 700, 4_000, 12_000]


def _outcomes(kernel, search, budgets, monkeypatch):
    """Per budget: the serialized grids or the error text, and the nodes
    left after each kernel call the search made."""
    left = []

    def traced(cell_domain, lines, domains, nodes):
        got = kernel(cell_domain, lines, domains, nodes)
        left.append(got[1])
        return got

    monkeypatch.setattr(ingredients, "_search_assignment", traced)
    outcomes = []
    for budget in budgets:
        try:
            text = "".join(serialize(g) for g in search(budget))
        except HoleyMagicError as exc:
            text = f"{type(exc).__name__}: {exc}"
        assert len(left) <= 1, "one kernel walk per search"
        outcomes.append((text, left[:]))
        del left[:]
    return outcomes


@pytest.mark.parametrize("case", range(len(DIFFERENTIAL_SEARCHES)),
                         ids=[name for name, _, _ in DIFFERENTIAL_SEARCHES])
def test_windowed_kernel_matches_reference(case, monkeypatch):
    _, search, top = DIFFERENTIAL_SEARCHES[case]
    smaller = [b for b in DIFFERENTIAL_BUDGETS if b < top]
    budgets = (smaller[case % len(smaller)], top)
    kernels = (ingredients._search_assignment, support.reference_search_assignment)
    windowed, reference = (_outcomes(k, search, budgets, monkeypatch) for k in kernels)
    assert windowed == reference


def test_kernel_exhaustion_leaves_the_unspent_budget(monkeypatch):
    for (a, b), left in EXHAUSTED_RECTANGLES.items():
        search = lambda n, a=a, b=b: _full_rectangle(a, b, n)
        assert _outcomes(ingredients._search_assignment, search, [20_000], monkeypatch) == [
            ("", [left])], (a, b)
