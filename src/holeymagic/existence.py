"""Existence decisions for MR(m,n;r,s).

decide() is sound in both directions: an "exists" verdict names a
construction route that realize() can actually follow, a "not-exists"
verdict names a proven obstruction, and anything the implemented theory
does not settle comes back "unknown" rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

VERDICTS = ("exists", "not-exists", "unknown")

ROUTES = (
    "Trivial",
    "Classical",
    "TwoPerColumn",
    "Stacked",
    "Product",
    "FiveCase",
    "BlockSet",
)

REASONS = (
    "ShapeInfeasible",
    "RowSumNonIntegral",
    "ColSumNonIntegral",
    "TwoTwoSquare",
    "ClassicalParity",
)


@dataclass(frozen=True)
class Decision:
    verdict: str
    route: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "exists":
            if self.route not in ROUTES or self.reason is not None:
                raise ValueError("exists decisions carry a route and no reason")
        elif self.verdict == "not-exists":
            if self.reason not in REASONS or self.route is not None:
                raise ValueError("not-exists decisions carry a reason and no route")
        elif self.route is not None or self.reason is not None:
            raise ValueError("unknown decisions carry neither route nor reason")


def _exists(route: str) -> Decision:
    return Decision("exists", route=route)


def _not_exists(reason: str) -> Decision:
    return Decision("not-exists", reason=reason)


def necessary_conditions(m: int, n: int, r: int, s: int) -> List[str]:
    """Violated necessary conditions, in a fixed order; empty means none.

    Malformed shapes (m*r != n*s, r > n, s > m) report ShapeInfeasible
    alone: the finer tests presuppose a well-formed shape.
    """
    for v in (m, n, r, s):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError("m, n, r, s must be positive integers")
    if m * r != n * s or r > n or s > m:
        return ["ShapeInfeasible"]
    out = []
    total = m * r
    if r % 2 == 1 and total % 2 == 0:
        out.append("RowSumNonIntegral")
    if s % 2 == 1 and total % 2 == 0:
        out.append("ColSumNonIntegral")
    if m == n and r == 2 and s == 2:
        out.append("TwoTwoSquare")
    return out


def decide(m: int, n: int, r: int, s: int) -> Decision:
    """Decide whether MR(m,n;r,s) exists.

    Routes are checked in a fixed order so the verdict is reproducible:
    Trivial, Classical, TwoPerColumn/Stacked, FiveCase, Product, BlockSet.
    """
    violated = necessary_conditions(m, n, r, s)
    if violated == ["ShapeInfeasible"]:
        return _not_exists("ShapeInfeasible")

    if r == n:
        # full rectangle (the shape screen above forces s = m); the
        # classical characterisation is complete, and its parity clause is
        # the canonical diagnosis even where an integrality tag also fires
        if (m, n) == (1, 1):
            return _exists("Trivial")
        if m % 2 != n % 2:
            return _not_exists("ClassicalParity")
        if violated:
            return _not_exists(violated[0])
        if m + n > 5 and m > 1 and n > 1:
            return _exists("Classical")
        return _not_exists("ClassicalParity")

    if violated:
        return _not_exists(violated[0])

    if n % m == 0:
        k = n // m  # k = 1 with s = 2 would be the screened 2x2 square case
        if s == 2:
            return _exists("TwoPerColumn")
        if 3 <= s <= m and (s % 2 == 0 or (k * m) % 2 == 1):
            return _exists("Stacked")

    d = math.gcd(m, n)
    a, b = m // d, n // d
    assert s % a == 0  # m*r = n*s and gcd(a,b)=1 force a | s
    sigma = s // a

    # odd sigma makes r odd with m*r even: the integrality screen above
    # has already answered
    if (a, b) == (2, 3) and sigma % 2 == 0:
        return _exists("FiveCase")

    if a > 1 and b > 1 and a % 2 == 1 and b % 2 == 1 and a + b > 5:
        if 3 <= sigma <= d and (sigma % 2 == 0 or d % 2 == 1):
            return _exists("Product")

    if s >= 2 and m % s == 0 and n % r == 0 and m // s == n // r:
        c = m // s
        all_odd = s % 2 == 1 and r % 2 == 1 and c % 2 == 1
        both_even = s % 2 == 0 and r % 2 == 0 and (s, r) != (2, 2)
        if s <= r and (all_odd or both_even):
            return _exists("BlockSet")

    return Decision("unknown")
