"""Command-line front end.

Thin by design: each command maps to one library operation, prints MRX or
a one-line verdict, and turns library errors into exit codes (1 for
domain failures, 2 for usage problems).  The construct subcommands that
match a decide route run that route's build from construct.BUILDS.  The
argument parser is built once per process, on the first dispatch(), and
reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import construct, existence, ingredients, oracle
from .errors import HoleyMagicError, ParseError
from .grid import MagicSpec, parse, serialize, verify
from .kotzig import kotzig


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (HoleyMagicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cache_of(args):
    path = getattr(args, "cache", None) or os.environ.get("HOLEY_CACHE")
    return ingredients.IngredientCache(path) if path else None


def _emit(grid) -> int:
    sys.stdout.write(serialize(grid))
    return 0


def _run_route(route: str, *flags: str):
    """Handler of a `construct` subcommand: the route's build, with the
    subcommand's flags as its params."""
    def run(args) -> int:
        params = [getattr(args, flag) for flag in flags]
        return _emit(construct.BUILDS[route](*params, cache=_cache_of(args)))
    return run


def _run_nmss(args) -> int:
    result = construct._build_nmss(args.m, args.s, args.t, cache=_cache_of(args))
    for sq in result.squares:
        sys.stdout.write(serialize(sq))
    return 0


def _run_verify(args) -> int:
    try:
        if args.path is None:
            text = sys.stdin.read()
        else:
            with open(args.path, "r") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"undecodable byte {exc.object[exc.start]:#04x}: {exc.reason}",
                         line) from exc
    grid = parse(text)
    m, n, r, s = args.spec
    report = verify(grid, MagicSpec(m, n, r, s))
    if report.ok:
        print(f"OK row={report.row_constant} col={report.col_constant}")
        return 0
    print("FAIL " + " ".join(str(v) for v in report.failures))
    return 1


def _run_decide(args) -> int:
    decision = existence.decide(args.m, args.n, args.r, args.s)
    if decision.verdict == "exists":
        print(f"EXISTS {decision.route}")
        return 0
    if decision.verdict == "not-exists":
        print(f"NOT-EXISTS {decision.reason}")
        return 1
    print("UNKNOWN")
    return 0


def _run_oracle(args) -> int:
    result = oracle.enumerate(args.m, args.n, args.r, args.s,
                              witness_cap=args.cap, node_budget=args.budget)
    print(f"count={result.count} exhausted={'true' if result.exhausted else 'false'}")
    for grid in result.witnesses:
        sys.stdout.write(serialize(grid))
    return 0


def _run_kotzig(args) -> int:
    arr = kotzig(args.s, args.k)
    for row in arr.entries:
        print(" ".join(str(v) for v in row))
    return 0


def _run_ingredient_ms(args) -> int:
    return _emit(ingredients.magic_square_holes(args.m, args.s, cache=_cache_of(args)))


def _run_ingredient_mr(args) -> int:
    return _emit(ingredients.classical_rectangle(args.a, args.b, cache=_cache_of(args)))


def _run_ingredient_mrs(args) -> int:
    members = ingredients.magic_rectangle_set(args.a, args.b, args.c, cache=_cache_of(args))
    for rect in members:
        sys.stdout.write(serialize(rect))
    return 0


def _add_cache_flag(sub) -> None:
    sub.add_argument("--cache", metavar="PATH",
                     help="ingredient cache file (default: $HOLEY_CACHE if set)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holeymagic",
        description="Construct, verify and decide existence of magic rectangles with empty cells.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    con = top.add_parser("construct", help="build a grid and print it as MRX")
    csub = con.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("two-per-column", help="MR(m,km;2k,2)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_run_route("TwoPerColumn", "m", "k"))

    p = csub.add_parser("stacked", help="MR(m,km;ks,s)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_route("Stacked", "m", "k", "s"))

    p = csub.add_parser("nmss", help="t separate squares sharing one constant")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_nmss)

    p = csub.add_parser("product", help="MR(am,bm;bs,as) from MS(m;s) x MR(a,b)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_route("Product", "m", "s", "a", "b"))

    p = csub.add_parser("five-case", help="MR(2m,3m;3s,2s)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_route("FiveCase", "m", "s"))

    p = csub.add_parser("block-set", help="MR(ac,bc;b,a) from an MRS(a,b;c)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_route("BlockSet", "a", "b", "c"))

    p = top.add_parser("verify", help="check an MRX grid against a spec")
    p.add_argument("path", nargs="?", default=None,
                   help="MRX file (default: standard input)")
    p.add_argument("--spec", type=int, nargs=4, metavar=("M", "N", "R", "S"),
                   required=True)
    p.set_defaults(func=_run_verify)

    p = top.add_parser("decide", help="existence verdict for MR(m,n;r,s)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_run_decide)

    p = top.add_parser("oracle", help="brute-force enumeration at desk scale")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--cap", type=int, default=4, help="witnesses to keep (default 4)")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_NODE_BUDGET,
                   help="search node budget")
    p.set_defaults(func=_run_oracle)

    p = top.add_parser("kotzig", help="print an s x k Kotzig array")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_run_kotzig)

    ing = top.add_parser("ingredient", help="fetch or search an ingredient grid")
    isub = ing.add_subparsers(dest="ingredient", required=True)

    p = isub.add_parser("ms", help="s-diagonal magic square with holes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_ingredient_ms)

    p = isub.add_parser("mr", help="classical full magic rectangle")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_ingredient_mr)

    p = isub.add_parser("mrs", help="magic rectangle set, printed as MRX blocks")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    _add_cache_flag(p)
    p.set_defaults(func=_run_ingredient_mrs)

    return parser


if __name__ == "__main__":
    main()
