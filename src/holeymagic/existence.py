"""Existence decisions for MR(m,n;r,s).

decide() is sound in both directions: an "exists" verdict names a
construction route that realize() can actually follow, a "not-exists"
verdict names a proven obstruction, and anything the implemented theory
does not settle comes back "unknown" rather than guessed.

Each existence theorem is stated once here, as a predicate; the ingredient
searches and the constructors gate on the same predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

VERDICTS = ("exists", "not-exists", "unknown")


def nmss_exists(m: int, s: int, t: int) -> bool:
    """NMSS(m,s;t), t s-diagonal MS(m;s) jointly holding 0..mst-1 with one
    common line sum, exists iff m=s=t=1, or 3 <= s <= m with s even or mt
    odd.  Set side by side, the t squares form the stacked MR(m,tm;ts,s)."""
    return m == s == t == 1 or (3 <= s <= m and (s % 2 == 0 or m * t % 2 == 1))


def ms_exists(m: int, s: int) -> bool:
    """An s-diagonal holey magic square MS(m;s) is an NMSS(m,s;1)."""
    return nmss_exists(m, s, 1)


def mr_exists(a: int, b: int) -> bool:
    """A full a x b magic rectangle exists iff a=b=1, or a = b (mod 2),
    a+b > 5 and a,b > 1."""
    return a == b == 1 or (a % 2 == b % 2 and a + b > 5 and a > 1 and b > 1)


def mrs_exists(a: int, b: int, c: int) -> bool:
    """MRS(a,b;c), c full a x b rectangles jointly holding 0..abc-1 with
    common row and column sums, taken short side first (1 < a <= b):
    exists iff a,b,c are all odd, or a,b are both even and (a,b) != (2,2)."""
    return 1 < a <= b and (a % 2 == b % 2 == c % 2 == 1
                           or (a % 2 == b % 2 == 0 and (a, b) != (2, 2)))


def five_case_exists(m: int, s: int) -> bool:
    """The five-case construction builds MR(2m,3m;3s,2s) for even s <= m."""
    return s % 2 == 0 and s <= m


# Route parameters: each takes a well-formed shape that violates no
# necessary condition and returns the parameters of the route's build
# (construct.BUILDS), or None when the route does not cover the shape.

def _trivial(m, n, r, s):
    return () if m == n == 1 else None


def _classical(m, n, r, s):
    return (m, n) if r == n and mr_exists(m, n) else None


def _two_per_column(m, n, r, s):
    # k = n/m = 1 would be the screened 2x2 square case
    return (m, n // m) if s == 2 and n % m == 0 else None


def _stacked(m, n, r, s):
    return (m, n // m, s) if n % m == 0 and nmss_exists(m, s, n // m) else None


def _five_case(m, n, r, s):
    # m : n is 2 : 3 in lowest terms exactly when 3m = 2n, and then the
    # common factor is m/2
    if 3 * m == 2 * n and five_case_exists(m // 2, s // 2):
        return (m // 2, s // 2)
    return None


def _product(m, n, r, s):
    d = math.gcd(m, n)
    a, b = m // d, n // d  # m*r = n*s and gcd(a,b) = 1 force a | s
    if mr_exists(a, b) and ms_exists(d, s // a):
        return (d, s // a, a, b)
    return None


def _block_set(m, n, r, s):
    # m/s = n/r, so s | m makes it the member count c
    if m % s == 0 and mrs_exists(s, r, m // s):
        return (s, r, m // s)
    return None


# Route name -> params, in the order decide() tries them, which fixes the
# verdict where routes overlap.
ROUTES = {
    "Trivial": _trivial,
    "Classical": _classical,
    "TwoPerColumn": _two_per_column,
    "Stacked": _stacked,
    "FiveCase": _five_case,
    "Product": _product,
    "BlockSet": _block_set,
}

REASONS = (
    "ShapeInfeasible",
    "RowSumNonIntegral",
    "ColSumNonIntegral",
    "TwoTwoSquare",
    "ClassicalParity",
    "SingletonLine",
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


# decide() returns these shared instances, which is safe since a Decision is
# immutable: building one runs __post_init__, which costs about as much as
# the rest of decide
_EXISTS = {route: Decision("exists", route=route) for route in ROUTES}
_NOT_EXISTS = {reason: Decision("not-exists", reason=reason) for reason in REASONS}
_UNKNOWN = Decision("unknown")


def is_int(v) -> bool:
    """Whether v is an int, an int subclass such as IntEnum included; a bool
    is not."""
    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)


def require_positive_ints(names: str, *values) -> None:
    """ValueError unless every value is a positive int; a bool is not."""
    for v in values:
        if type(v) is int and v >= 1:
            continue
        if not is_int(v) or v < 1:
            raise ValueError(f"{names} must be positive integers")


def necessary_conditions(m: int, n: int, r: int, s: int) -> List[str]:
    """Violated necessary conditions, in a fixed order; empty means none.

    Malformed shapes (m*r != n*s, r > n, s > m) report ShapeInfeasible
    alone: the finer tests presuppose a well-formed shape.
    """
    # exact ints, nearly every call, skip require_positive_ints' loop
    if not (type(m) is int and type(n) is int and type(r) is int and type(s) is int
            and m >= 1 and n >= 1 and r >= 1 and s >= 1):
        require_positive_ints("m, n, r, s", m, n, r, s)
    total = m * r
    if total != n * s or r > n or s > m:
        return ["ShapeInfeasible"]
    out = []
    if total % 2 == 0:
        if r % 2 == 1:
            out.append("RowSumNonIntegral")
        if s % 2 == 1:
            out.append("ColSumNonIntegral")
    if m == n and r == 2 and s == 2:
        out.append("TwoTwoSquare")
    if (r == 1 or s == 1) and total > 1:
        # each line holding one value must equal the common line constant,
        # but the mr > 1 values all differ
        out.append("SingletonLine")
    return out


def decide(m: int, n: int, r: int, s: int) -> Decision:
    """Decide whether MR(m,n;r,s) exists: the first route in ROUTES that
    covers a shape violating no necessary condition."""
    violated = necessary_conditions(m, n, r, s)
    if not violated:
        for route, params in ROUTES.items():
            if params(m, n, r, s) is not None:
                return _EXISTS[route]
    elif violated[0] == "ShapeInfeasible":  # reported alone
        return _NOT_EXISTS["ShapeInfeasible"]
    if r == n:
        # full rectangle (the shape screen forces s = m) that no route
        # covers: its integrality tags all follow from a parity mismatch, so
        # the classical parity clause is the canonical diagnosis
        return _NOT_EXISTS["TwoTwoSquare" if "TwoTwoSquare" in violated else "ClassicalParity"]
    return _NOT_EXISTS[violated[0]] if violated else _UNKNOWN
