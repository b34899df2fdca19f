"""The three benchmark workloads: sweep, pipe and oracle.

Each workload is a closed loop with one caller: `setup` builds a pass, a
seeded list of operations, and `run` executes one of them and returns its
outcome.  The program only ever sees the generated inputs.  Every
operation spends at most a fixed node budget, so work is counted in nodes
and the same seed gives the same outcomes on every run.
"""

from __future__ import annotations

import functools
import io
import os
import random
import sys

from . import check

# One flat node budget per sweep operation.  Criterion 8 uses 100 000.
# 2 500 keeps a pass of about 500 shapes near six seconds on a 2-core
# machine, so a run holds several passes.  The draw is large so that seeds
# agree: at about 100 shapes the draw alone moved p90 by over 10% from seed
# to seed.  Short operations also keep the tail steady: on a shared
# machine, the longest searches (0.1 s at 5 000 nodes) slowed by up to 40%
# for minutes at a time while short ones did not.
SWEEP_BUDGET = 2_500

# Share of each decide route's population drawn per pass: every route gets
# its population share, at least one shape and at most all of them.  There
# is no observed traffic to weight routes by, so none is favoured.
SWEEP_FRACTION = 0.4

# mr bound of the sweep population; above criterion 8's 200 so that the
# Product route (smallest shape (15,25,15,9), mr = 225) appears.
SWEEP_MAX_TOTAL = 250

ORACLE_BUDGET = 20_000
ORACLE_MAX_TOTAL = 40

# Node budget for stocking the pipe's cache; every key below is found well
# within it at the seed state.
STOCK_BUDGET = 200_000


@functools.lru_cache(maxsize=None)
def well_shaped(max_total: int) -> tuple:
    """Every (m, n, r, s) with m*r = n*s <= max_total, r <= n, s <= m.
    Workloads take it in __init__, so set-up times only the program."""
    shapes = []
    for m in range(1, max_total + 1):
        for r in range(1, max_total // m + 1):
            t = m * r
            for n in range(r, t + 1):
                if t % n == 0 and t // n <= m:
                    shapes.append((m, n, r, t // n))
    return tuple(shapes)


class Outcome:
    """Result of one operation: `kind` is "ok", "inconclusive" or the name
    of the unexpected exception; `value` is what the checker inspects."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value=None):
        self.kind = kind
        self.value = value


class Workload:
    name = ""

    def __init__(self, hm, seed: int, workdir: str):
        self.hm = hm
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []
        self.cache_path = None
        # (kind, params, profile) of the cache entries written at set-up
        self.stock_keys: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def setup_steps(self) -> list:
        """The set-up as a list of calls that the benchmark times one by one."""
        return [self.setup]

    def begin_pass(self) -> None:
        """Reset per-pass state so every pass does the same work."""

    def run(self, op) -> Outcome:
        raise NotImplementedError

    def check(self, op, outcome: Outcome) -> None:
        """Raise check.WrongOutput if the outcome is wrong."""
        raise NotImplementedError

    def route_of(self, op):
        """decide route of the operation's shape, for reach tallies."""
        return None

    def cache_bytes(self) -> int:
        if self.cache_path is None or not os.path.exists(self.cache_path):
            return 0
        return os.path.getsize(self.cache_path)

    def cache_entries(self, keys) -> int:
        """How many of the (kind, params, profile) keys the program's cache
        file holds, read back through IngredientCache.load."""
        if self.cache_path is None:
            return 0
        cache = self.hm.IngredientCache(self.cache_path)
        return sum(cache.load(kind, params, profile) is not None
                   for kind, params, profile in set(keys))


# ---------------------------------------------------------------------------
# sweep: realize() on a route-stratified draw of `exists` shapes

def _ingredient_order(shape):
    """Sort key that puts shapes needing the same ingredient side by side:
    the short and long side of a Classical rectangle, MS(m;s) of Stacked,
    MRS(s,r;m/s) of BlockSet.  Search cost follows the ingredient."""
    m, n, r, s = shape
    return (min(m, n), s, r, max(m, n))


def _stratified(rng: random.Random, population: list, k: int) -> list:
    """One draw from each of k contiguous, equal-size slices of the
    population, so every draw spans the whole range of ingredients."""
    if len(population) <= k:
        return list(population)
    picks = []
    for b in range(k):
        lo = b * len(population) // k
        hi = (b + 1) * len(population) // k
        picks.append(population[rng.randrange(lo, hi)])
    return picks


class Sweep(Workload):
    name = "sweep"

    def __init__(self, hm, seed: int, workdir: str):
        super().__init__(hm, seed, workdir)
        self.shapes = well_shaped(SWEEP_MAX_TOTAL)

    def setup(self) -> None:
        decide = self.hm.decide
        by_route: dict = {}
        for shape in self.shapes:
            d = decide(*shape)
            if d.verdict == "exists":
                by_route.setdefault(d.route, []).append(shape)
        rng = random.Random(self.seed)
        ops = []
        for route in sorted(by_route):
            population = sorted(by_route[route], key=_ingredient_order)
            k = min(len(population), max(1, round(SWEEP_FRACTION * len(population))))
            ops.extend((shape, route) for shape in _stratified(rng, population, k))
        ops.sort(key=lambda op: (op[0][0] * op[0][2], op[0]))
        self.ops = ops
        self.cache_path = os.path.join(self.workdir, "sweep-cache.mrx")
        self._remove_cache()

    def _remove_cache(self) -> None:
        if os.path.exists(self.cache_path):
            os.unlink(self.cache_path)

    def begin_pass(self) -> None:
        self._remove_cache()
        self.cache = self.hm.IngredientCache(self.cache_path)

    def run(self, op) -> Outcome:
        shape, _ = op
        try:
            return Outcome("ok", self.hm.realize(*shape, cache=self.cache, budget=SWEEP_BUDGET))
        except self.hm.SearchBudgetExceeded:
            return Outcome("inconclusive")
        except Exception as exc:  # tallied by type; the loop must go on
            return Outcome(type(exc).__name__)

    def check(self, op, outcome: Outcome) -> None:
        if outcome.kind == "ok":
            check.magic(check.grid_rows(outcome.value), *op[0])

    def route_of(self, op):
        return op[1]


# ---------------------------------------------------------------------------
# pipe: CLI commands through cli.dispatch, stdin/stdout redirected

def _stock_keys() -> list:
    """Keys (kind, params, diagonal-profile runs or None) of the pipe's
    cache, standing in for a long-used HOLEY_CACHE.

    The families are the ingredients the pipe's commands read: MS(m;s) for
    stacked, nmss and product, the five-case big square, MR(a,b) for
    product and MRS(a,b;c) for block-set.  The sizes are ones the seed
    state finds within STOCK_BUDGET nodes, 111 entries in all.  They are an
    assumption: there is no record of what real caches hold.
    """
    keys = [("ms", (m, s), None) for m, s in
            [(3, 3), (4, 4), (5, 4), (5, 5), (7, 3), (9, 3), (11, 3), (13, 3), (15, 3)]]
    keys.append(("ms", (4, 4), ((1, 0, 3),)))  # five-case big square, m=2 s=2
    keys += [("mr", (2, b), None) for b in range(4, 61, 2)]
    keys += [("mr", (b, 2), None) for b in range(4, 41, 2)]
    keys += [("mr", ab, None) for ab in
             [(3, 3), (3, 5), (5, 3), (3, 7), (7, 3), (4, 4), (4, 6), (6, 4), (5, 5)]]
    keys += [("mrs", (2, 4, c), None) for c in range(1, 10)]
    keys += [("mrs", (4, 4, c), None) for c in range(1, 10)]
    keys += [("mrs", (2, b, c), None) for b in (6, 8, 10, 12) for c in range(1, 6)]
    keys += [("mrs", abc, None) for abc in
             [(3, 3, 1), (3, 3, 3), (3, 5, 1), (3, 7, 1), (4, 6, 1), (5, 5, 1)]]
    return keys


# MS(m;s) the pipe may use: stocked ones plus the two catalog squares.
_PIPE_MS = [(3, 3), (4, 4), (5, 3), (5, 4), (5, 5), (6, 4), (7, 3), (9, 3),
            (11, 3), (13, 3), (15, 3)]

# Operations per pass of each of the pipe's eleven commands: construct
# two-per-column, stacked, nmss, product, five-case and block-set, decide,
# kotzig, and ingredient ms, mr and mrs.  They are weighted equally because
# there is no observed traffic to weight them by.
PIPE_PER_COMMAND = 36

# Commands with a free size (two-per-column, stacked, nmss) draw their
# grid's cell count log-uniformly, from the command's smallest grid up to
# PIPE_MAX_CELLS, so every order of magnitude of size gets the same share.
# The cap is a tenth of the largest grid below; it keeps a pass near three
# seconds, so a run holds several passes.  The other commands' sizes follow
# from the ingredient, drawn uniformly.
PIPE_MAX_CELLS = 20_000

# The largest grid: two-per-column at 100 x 2000, about 400 kB of MRX.  It
# is one of the two-per-column operations of every pass, so peak memory
# does not depend on the draw.
PIPE_LARGEST = (100, 20)


def _strata(rng: random.Random, n: int) -> list:
    """n numbers in [0, 1), one from each of n equal slices, in random
    order.  Drawing every random choice of a command from these keeps the
    share of small and large inputs the same from seed to seed."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _pick(pool, u: float):
    return pool[int(u * len(pool))]


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi], log-uniform for uniform u."""
    return min(hi, int(lo * (hi / lo) ** u))


def _multiple(u: float, m: int) -> int:
    """How many m x m blocks make a grid of log-uniform cell count."""
    return max(1, round(_log_int(u, m * m, PIPE_MAX_CELLS) / (m * m)))


class Pipe(Workload):
    name = "pipe"

    def setup(self) -> None:
        for step in self.setup_steps():
            step()

    def setup_steps(self) -> list:
        """Stocking the cache takes about a second, long enough for the
        machine's speed to change within it, so each entry is a step."""
        return ([self._new_cache]
                + [functools.partial(self._stock, *key) for key in _stock_keys()]
                + [self._draw_pass])

    def _new_cache(self) -> None:
        self.cache_path = os.path.join(self.workdir, "holey-cache.mrx")
        if os.path.exists(self.cache_path):
            os.unlink(self.cache_path)
        self.cache = self.hm.IngredientCache(self.cache_path)
        self.stock_keys = []

    def _stock(self, kind, params, runs) -> None:
        hm, cache = self.hm, self.cache
        profile = hm.DiagonalProfile(runs) if runs else None
        if kind == "ms":
            hm.ingredients.magic_square_holes(*params, profile, cache=cache, budget=STOCK_BUDGET)
        elif kind == "mr":
            hm.ingredients.classical_rectangle(*params, cache=cache, budget=STOCK_BUDGET)
        else:
            hm.ingredients.magic_rectangle_set(*params, cache=cache, budget=STOCK_BUDGET)
        self.stock_keys.append((kind, params, profile))

    def _draw_pass(self) -> None:
        self.ops = self._draw(random.Random(self.seed))

    def _draw(self, rng: random.Random) -> list:
        keys = _stock_keys()
        pool = {"ms": _PIPE_MS,
                "mr": [p for k, p, _ in keys if k == "mr"],
                "mrs": [p for k, p, _ in keys if k == "mrs"]}
        cache = ["--cache", self.cache_path]
        n = PIPE_PER_COMMAND
        ops = []

        def construct(argv, spec):
            ops.append(("construct", ["construct"] + argv, spec))

        def strata(count=n):
            return _strata(rng, count)

        m, k = PIPE_LARGEST
        construct(["two-per-column", "--m", str(m), "--k", str(k)], (m, k * m, 2 * k, 2))
        for u, v in zip(strata(n - 1), strata(n - 1)):
            cells = _log_int(u, 8, PIPE_MAX_CELLS)  # the smallest is m=2, k=2
            m = _log_int(v, 2, max(2, int((cells // 2) ** 0.5)))
            k = max(2, round(cells / (m * m)))
            construct(["two-per-column", "--m", str(m), "--k", str(k)], (m, k * m, 2 * k, 2))
        for u, v in zip(strata(), strata()):
            m, s = _pick(_PIPE_MS, u)
            k = _multiple(v, m)
            if s % 2 and (k * m) % 2 == 0:
                k += 1
            construct(["stacked", "--m", str(m), "--k", str(k), "--s", str(s)] + cache,
                      (m, k * m, k * s, s))
        for u, v in zip(strata(), strata()):
            m, s = _pick(_PIPE_MS, u)
            t = _multiple(v, m)
            if s % 2 and (m * t) % 2 == 0:
                t += 1
            ops.append(("nmss", ["construct", "nmss", "--m", str(m), "--s", str(s),
                                 "--t", str(t)] + cache, (m, s, t)))
        # every (square, rectangle) pair, smallest product first, so the
        # strata spread over product sizes
        pairs = sorted(((m, s, a, b) for m, s in _PIPE_MS for a, b in pool["mr"]),
                       key=lambda x: (x[0] * x[0] * x[2] * x[3], x))
        for u in strata():
            m, s, a, b = _pick(pairs, u)
            construct(["product", "--m", str(m), "--s", str(s), "--a", str(a), "--b", str(b)]
                      + cache, (a * m, b * m, b * s, a * s))
        for u in strata():
            m = _pick((2, 3), u)
            construct(["five-case", "--m", str(m), "--s", "2"] + cache,
                      (2 * m, 3 * m, 6, 4))
        for u in strata():
            a, b, c = _pick(pool["mrs"], u)
            construct(["block-set", "--a", str(a), "--b", str(b), "--c", str(c)] + cache,
                      (a * c, b * c, b, a))
        # half arbitrary shapes, half well-shaped ones, which reach the
        # deeper screens
        for i, (u, v) in enumerate(zip(strata(), strata())):
            m, r = 1 + int(40 * u), 1 + int(40 * v)
            if i % 2:
                n_, s = rng.randint(1, 40), rng.randint(1, 40)
            else:
                n_ = rng.choice([d for d in range(r, m * r + 1)
                                 if (m * r) % d == 0 and m * r // d <= m])
                s = m * r // n_
            ops.append(("decide", ["decide", "--m", str(m), "--n", str(n_), "--r", str(r),
                                   "--s", str(s)], (m, n_, r, s)))
        for u, v in zip(strata(), strata()):
            s, k = 2 + int(19 * u), 1 + int(60 * v)
            if s % 2 and k % 2 == 0:
                k += 1
            ops.append(("kotzig", ["kotzig", "--s", str(s), "--k", str(k)], (s, k)))
        flags = {"ms": ("--m", "--s"), "mr": ("--a", "--b"), "mrs": ("--a", "--b", "--c")}
        for kind in ("ms", "mr", "mrs"):
            for u in strata():
                params = _pick(pool[kind], u)
                argv = ["ingredient", kind]
                for flag, v in zip(flags[kind], params):
                    argv += [flag, str(v)]
                ops.append((kind, argv + cache, params))
        rng.shuffle(ops)
        return ops

    def _dispatch(self, argv, stdin_text=""):
        saved = sys.stdin, sys.stdout, sys.stderr
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
        try:
            code = self.hm.cli.dispatch(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue()

    def run(self, op) -> Outcome:
        kind, argv, spec = op
        try:
            first = self._dispatch(argv)
            if kind == "decide":  # exit 1 is its documented NOT-EXISTS answer
                return Outcome("ok", [first])
            if first[0] != 0:  # the inputs are chosen so every other command succeeds
                return Outcome(f"exit{first[0]}", [first])
            if kind != "construct":
                return Outcome("ok", [first])
            verify_argv = ["verify", "--spec"] + [str(v) for v in spec]
            return Outcome("ok", [first, self._dispatch(verify_argv, first[1])])
        except Exception as exc:  # tallied by type; the loop must go on
            return Outcome(type(exc).__name__)

    def check(self, op, outcome: Outcome) -> None:
        if outcome.kind != "ok":
            return
        kind, _, spec = op
        (code, out, _), *rest = outcome.value
        if kind == "decide":
            check.decide_line(out, code, spec)
        elif kind == "construct":
            check.magic(check.read_one(out), *spec)
            vcode, vout, _ = rest[0]
            if vcode != 0:
                raise check.WrongOutput(f"verify rejected a good grid: {vout[:60]!r}")
            check.verify_line(vout, *spec)
        elif kind == "nmss":
            check.square_set(check.read_blocks(out), *spec)
        elif kind == "kotzig":
            check.kotzig_rows(out, *spec)
        elif kind == "ms":
            check.s_diagonal(check.read_one(out), *spec)
        elif kind == "mr":
            a, b = spec
            check.magic(check.read_one(out), a, b, b, a)
        elif kind == "mrs":
            check.rectangle_set(check.read_blocks(out), *spec)


# ---------------------------------------------------------------------------
# oracle: brute-force enumeration of every small shape

class Oracle(Workload):
    name = "oracle"

    def __init__(self, hm, seed: int, workdir: str):
        super().__init__(hm, seed, workdir)
        self.shapes = [x for x in well_shaped(ORACLE_MAX_TOTAL)
                       if x[2] >= 2 and x[3] >= 2 and check.integral(*x)]

    def setup(self) -> None:
        decide = self.hm.decide
        ops = [(x, decide(*x).verdict) for x in self.shapes]
        random.Random(self.seed).shuffle(ops)
        self.ops = ops

    def run(self, op) -> Outcome:
        shape, _ = op
        try:
            res = self.hm.oracle.enumerate(*shape, witness_cap=1,
                                           node_budget=ORACLE_BUDGET, allow_large=True)
        except Exception as exc:  # tallied by type; the loop must go on
            return Outcome(type(exc).__name__)
        kind = "inconclusive" if res.count == 0 and not res.exhausted else "ok"
        return Outcome(kind, res)

    def check(self, op, outcome: Outcome) -> None:
        if outcome.value is not None:
            res = outcome.value
            check.oracle_answer(op[0], op[1], res.count, res.exhausted, res.witnesses)


WORKLOADS = {w.name: w for w in (Sweep, Pipe, Oracle)}
