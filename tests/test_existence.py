import enum
import hashlib
import itertools
import re

import pytest

from holeymagic import (
    Decision,
    NotConstructible,
    decide,
    necessary_conditions,
    realize,
    two_per_column,
)
from holeymagic.existence import REASONS, REFUSALS, require
from holeymagic.oracle import exists_brute

import support


def test_decision_field_coupling():
    Decision("exists", route="Classical")
    Decision("not-exists", reason="TwoTwoSquare")
    Decision("unknown")
    with pytest.raises(ValueError):
        Decision("exists")
    with pytest.raises(ValueError):
        Decision("exists", route="Classical", reason="TwoTwoSquare")
    with pytest.raises(ValueError):
        Decision("not-exists", route="Classical")
    with pytest.raises(ValueError):
        Decision("unknown", reason="TwoTwoSquare")
    with pytest.raises(ValueError):
        Decision("maybe")
    with pytest.raises(ValueError):
        Decision("exists", route="Magic")


def test_necessary_conditions_examples():
    assert necessary_conditions(4, 6, 3, 2) == ["RowSumNonIntegral"]
    assert necessary_conditions(3, 3, 2, 2) == ["TwoTwoSquare"]
    assert necessary_conditions(5, 10, 4, 2) == []
    assert necessary_conditions(3, 4, 2, 2) == ["ShapeInfeasible"]


def test_necessary_conditions_shape_reported_alone():
    # malformed shapes skip the finer tests entirely
    assert necessary_conditions(2, 3, 3, 1) == ["ShapeInfeasible"]
    assert necessary_conditions(1, 2, 4, 2) == ["ShapeInfeasible"]


def test_necessary_conditions_column_tag():
    # 2x6 with r=6, s=2 is fine; r=3, s=1 on 2x6 has mr=6... use (4,12,3,1)
    tags = necessary_conditions(4, 12, 3, 1)
    assert "RowSumNonIntegral" in tags and "ColSumNonIntegral" in tags


def test_necessary_conditions_rejects_bad_input():
    with pytest.raises(ValueError):
        necessary_conditions(0, 1, 1, 1)
    with pytest.raises(ValueError):
        necessary_conditions(1, 1, 1, True)


def test_decide_examples():
    assert decide(5, 10, 4, 2) == Decision("exists", route="TwoPerColumn")
    assert decide(9, 15, 5, 3) == Decision("exists", route="BlockSet")
    assert decide(9, 15, 10, 6) == Decision("unknown")
    assert decide(2, 5, 5, 2) == Decision("not-exists", reason="ClassicalParity")
    assert decide(1, 1, 1, 1) == Decision("exists", route="Trivial")
    assert decide(3, 3, 2, 2) == Decision("not-exists", reason="TwoTwoSquare")


def test_decide_full_rectangles():
    assert decide(3, 5, 5, 3).route == "Classical"
    assert decide(4, 6, 6, 4).route == "Classical"
    assert decide(2, 2, 2, 2).reason == "TwoTwoSquare"
    # parity fine but below the classical size floor
    assert decide(1, 3, 3, 1).verdict == "not-exists"


def test_decide_routes():
    assert decide(5, 15, 9, 3).route == "Stacked"
    assert decide(6, 9, 6, 4).route == "FiveCase"
    assert decide(15, 25, 15, 9).route == "Product"
    assert decide(4, 8, 4, 2).route == "TwoPerColumn"


def test_singleton_line_verdicts_agree_with_the_oracle():
    shapes = [x for x in support.all_well_shaped(20)
              if decide(*x).reason == "SingletonLine"]
    assert len(shapes) == 15
    for shape in shapes:
        assert exists_brute(*shape) == "no", shape


def test_decide_shape_violations():
    assert decide(3, 4, 2, 2).reason == "ShapeInfeasible"
    assert decide(4, 6, 3, 2).reason == "RowSumNonIntegral"


REASON_EXAMPLES = {
    "ShapeInfeasible": (3, 4, 2, 2),
    "RowSumNonIntegral": (4, 6, 3, 2),
    "ColSumNonIntegral": (6, 4, 2, 3),
    "TwoTwoSquare": (3, 3, 2, 2),
    "ClassicalParity": (2, 5, 5, 2),
    "SingletonLine": (3, 3, 1, 1),
}


def test_every_reason_is_reachable():
    assert set(REASON_EXAMPLES) == set(REASONS)
    for reason, shape in REASON_EXAMPLES.items():
        assert decide(*shape) == Decision("not-exists", reason=reason)


def test_decide_is_pure():
    assert decide(9, 15, 10, 6) == decide(9, 15, 10, 6)
    assert decide(6, 9, 6, 4) == decide(6, 9, 6, 4)


# sha256 of one "m n r s verdict route reason tags" line per shape, over
# every (m,n,r,s) in 1..20, frozen before decide became table-driven: any
# moved verdict, route or reason changes it.  Re-frozen when SingletonLine
# came in: 15 lines went from unknown to SingletonLine and 96 only gained
# the tag at their end.
DIGEST_1_20 = "debd4fb9a4309ada8e2c04979ad099d002ab9982e031f2c69f1fa960b8ec3894"


def test_verdicts_pinned():
    h = hashlib.sha256()
    for m in range(1, 21):
        for n in range(1, 21):
            for r in range(1, 21):
                for s in range(1, 21):
                    d = decide(m, n, r, s)
                    tags = ",".join(necessary_conditions(m, n, r, s))
                    h.update(f"{m} {n} {r} {s} {d.verdict} {d.route} {d.reason} {tags}\n".encode())
    assert h.hexdigest() == DIGEST_1_20


# The same line format over every (m,n,r,s) with m*r = n*s <= 250, r <= n
# and s <= m (6 284 shapes, sides up to 250), frozen before decide and
# necessary_conditions took their exact-int shortcut.  Re-frozen when
# SingletonLine came in: 510 lines went from unknown to SingletonLine and
# 2 081 only gained the tag at their end.
DIGEST_MR_250 = "7a15edeebde0e612cf7d30bb17534ddc3da97146c79098c6fef87d18eaf9592a"


def test_verdicts_pinned_up_to_mr_250():
    h = hashlib.sha256()
    count = 0
    for m in range(1, 251):
        for r in range(1, 250 // m + 1):
            total = m * r
            for n in range(r, total + 1):
                if total % n == 0 and total // n <= m:
                    s = total // n
                    d = decide(m, n, r, s)
                    tags = ",".join(necessary_conditions(m, n, r, s))
                    h.update(f"{m} {n} {r} {s} {d.verdict} {d.route} {d.reason} {tags}\n".encode())
                    count += 1
    assert count == 6284
    assert h.hexdigest() == DIGEST_MR_250


class Side(enum.IntEnum):
    TWO = 2
    THREE = 3
    FOUR = 4
    SIX = 6
    NINE = 9


def test_int_enum_sides_are_ints():
    assert decide(Side.SIX, Side.NINE, Side.SIX, Side.FOUR) == decide(6, 9, 6, 4)
    assert decide(Side.FOUR, Side.SIX, Side.THREE, Side.TWO) == decide(4, 6, 3, 2)
    assert necessary_conditions(Side.FOUR, Side.SIX, Side.THREE, Side.TWO) == ["RowSumNonIntegral"]
    assert two_per_column(Side.THREE, Side.TWO) == two_per_column(3, 2)


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("side", range(4), ids=["m", "n", "r", "s"])
def test_non_int_sides_raise_value_error(bad, side):
    # the gates of the builders and ingredients: tests/test_construct.py
    # and tests/test_ingredients.py
    shape = [2, 4, 4, 2]
    shape[side] = bad
    for call in (decide, necessary_conditions, realize):
        with pytest.raises(ValueError, match="positive integers"):
            call(*shape)


@pytest.mark.parametrize("predicate", list(REFUSALS), ids=lambda p: p.__name__)
def test_require_refuses_exactly_where_the_predicate_fails(predicate):
    _, obj, _ = REFUSALS[predicate]
    arity = predicate.__code__.co_argcount
    for params in itertools.product(range(1, 8), repeat=arity):
        if predicate(*params):
            assert require(predicate, *params) is None
            continue
        with pytest.raises(NotConstructible) as refused:
            require(predicate, *params)
        message = str(refused.value)
        assert message.startswith("no ")
        assert obj(*params) in message
        # a refused MS or MR shape is one that decide does not build
        shape = re.search(r"\b(MS|MR)\(([\d,;]+)\)", message)
        if shape:
            sizes = [int(v) for v in re.split("[,;]", shape[2])]
            if shape[1] == "MS":
                (m, s) = sizes
                sizes = [m, m, s, s]
            elif len(sizes) == 2:
                sizes += sizes[::-1]
            assert decide(*sizes).verdict != "exists", message


@pytest.mark.parametrize("bad", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("predicate", list(REFUSALS), ids=lambda p: p.__name__)
def test_require_checks_sizes_before_existence(predicate, bad):
    # every other size 1 fails most predicates, so a ValueError here was
    # raised before the existence test
    arity = predicate.__code__.co_argcount
    for at in range(arity):
        params = [1] * arity
        params[at] = bad
        with pytest.raises(ValueError, match="must be positive integers"):
            require(predicate, *params)
