"""Command-line front end.

Thin by design: each command maps to one library operation, prints MRX or
a one-line verdict, and turns library errors into exit codes (1 for
domain failures and sizes past memory or index range, 2 for usage problems).

Every subcommand is one row of _COMMANDS: its group, name, help, flags,
whether it takes --cache, and the call it makes.  The nine commands that
print grids share one handler, _run_grids: it calls the row's library
function with the flags' values and the ingredient cache (--cache, else
$HOLEY_CACHE), and prints what comes back as MRX, be it one grid, a list
of grids or an NmssResult's squares.  verify, decide, oracle and kotzig
keep handlers of their own.  A row names its library function as a
namespace and a key (construct.BUILDS and a route, or a module's vars()
and a function name) and the function is looked up there at each call,
never captured when the table is built: holeybench/trace.py rebinds the
modules' names to wrap them, and tests monkeypatch them.  The argument
parser is built from the table once per process, on the first dispatch(),
and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import construct, existence, ingredients, oracle
from .errors import HoleyMagicError, ParseError
from .grid import HoleyGrid, MagicSpec, parse, serialize, verify
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: too large: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_grids(namespace, key, flags, args) -> int:
    path = getattr(args, "cache", None) or os.environ.get("HOLEY_CACHE")
    out = namespace[key](*(getattr(args, flag) for flag in flags),
                         cache=ingredients.IngredientCache(path) if path else None)
    for grid in [out] if isinstance(out, HoleyGrid) else getattr(out, "squares", out):
        sys.stdout.write(serialize(grid))
    return 0


def _run_verify(args) -> int:
    existence.require_positive_ints("--spec entries", *args.spec)
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
    report = verify(parse(text), MagicSpec(*args.spec))
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


# Group -> (dest of its subcommand, help).
_GROUPS = {"construct": ("construction", "build a grid and print it as MRX"),
           "ingredient": ("ingredient", "fetch or search an ingredient grid")}

# Flags other than a required int --flag: name -> (argument, options).
_OPTIONS = {
    "path": ("path", {"nargs": "?", "default": None, "help": "MRX file (default: standard input)"}),
    "spec": ("--spec", {"type": int, "nargs": 4, "metavar": ("M", "N", "R", "S"),
                        "required": True}),
    "cap": ("--cap", {"type": int, "default": 4, "help": "witnesses to keep (default 4)"}),
    "budget": ("--budget", {"type": int, "default": oracle.DEFAULT_NODE_BUDGET,
                            "help": "search node budget"}),
}

# (group, or None at top level; name; help; flags; takes --cache; call), in
# the order --help lists them.  The call is a handler, or for a command that
# prints grids the (namespace, key) of its library function.
_COMMANDS = [
    ("construct", "two-per-column", "MR(m,km;2k,2)", "m k", False,
     (construct.BUILDS, "TwoPerColumn")),
    ("construct", "stacked", "MR(m,km;ks,s)", "m k s", True, (construct.BUILDS, "Stacked")),
    ("construct", "nmss", "t separate squares sharing one constant", "m s t", True,
     (vars(construct), "_build_nmss")),
    ("construct", "product", "MR(am,bm;bs,as) from MS(m;s) x MR(a,b)", "m s a b", True,
     (construct.BUILDS, "Product")),
    ("construct", "five-case", "MR(2m,3m;3s,2s)", "m s", True, (construct.BUILDS, "FiveCase")),
    ("construct", "block-set", "MR(ac,bc;b,a) from an MRS(a,b;c)", "a b c", True,
     (construct.BUILDS, "BlockSet")),
    (None, "verify", "check an MRX grid against a spec", "path spec", False, _run_verify),
    (None, "decide", "existence verdict for MR(m,n;r,s)", "m n r s", False, _run_decide),
    (None, "oracle", "brute-force enumeration at desk scale", "m n r s cap budget", False,
     _run_oracle),
    (None, "kotzig", "print an s x k Kotzig array", "s k", False, _run_kotzig),
    ("ingredient", "ms", "s-diagonal magic square with holes", "m s", True,
     (vars(ingredients), "magic_square_holes")),
    ("ingredient", "mr", "classical full magic rectangle", "a b", True,
     (vars(ingredients), "classical_rectangle")),
    ("ingredient", "mrs", "magic rectangle set, printed as MRX blocks", "a b c", True,
     (vars(ingredients), "magic_rectangle_set")),
]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holeymagic",
        description="Construct, verify and decide existence of magic rectangles with empty cells.",
    )
    groups = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, text, flags, cache, call in _COMMANDS:
        if group not in groups:
            dest, group_text = _GROUPS[group]
            groups[group] = groups[None].add_parser(group, help=group_text).add_subparsers(
                dest=dest, required=True)
        p = groups[group].add_parser(name, help=text)
        for flag in flags.split():
            argument, options = _OPTIONS.get(flag, (f"--{flag}", {"type": int, "required": True}))
            p.add_argument(argument, **options)
        if cache:
            p.add_argument("--cache", metavar="PATH",
                           help="ingredient cache file (default: $HOLEY_CACHE if set)")
        grids = isinstance(call, tuple)
        p.set_defaults(func=functools.partial(_run_grids, *call, flags.split()) if grids else call)
    return parser


if __name__ == "__main__":
    main()
