import argparse
import hashlib
import io
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from holeymagic import MagicSpec, construct, existence, ingredients, oracle, parse, realize
from holeymagic import serialize, verify
from holeymagic.cli import _build_parser, dispatch
from holeymagic.grid import above
from holeymagic.kotzig import kotzig, lift

import golden


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_two_per_column(capsys):
    code, out, err = run(capsys, "construct", "two-per-column", "--m", "5", "--k", "2")
    assert (code, err) == (0, "")
    assert out == golden.TWO_PER_COLUMN_5_2


def test_construct_stacked_matches_golden(capsys):
    code, out, _ = run(capsys, "construct", "stacked", "--m", "5", "--k", "5", "--s", "3")
    assert code == 0
    assert out == golden.STACKED_5_5_3


def test_construct_five_case_matches_golden(capsys):
    # the CLI's big square is two lifted copies of the strip, not the
    # published SQUARE_6_4 that test_five_case_golden pins
    code, out, _ = run(capsys, "construct", "five-case", "--m", "3", "--s", "2")
    assert code == 0
    assert verify(parse(out), MagicSpec(6, 9, 6, 4)).ok
    strip = parse(golden.TWO_PER_COLUMN_3_2)
    square = above(lift(strip, lambda i, j: j // 3, kotzig(2, 2)))
    assert out == serialize(construct.five_case(3, 2, square, strip))


def test_construct_nmss_prints_blocks(capsys):
    code, out, _ = run(capsys, "construct", "nmss", "--m", "5", "--s", "3", "--t", "5")
    assert code == 0
    assert out.count("5 5\n") == 5


def test_construct_product(capsys):
    code, out, _ = run(capsys, "construct", "product",
                       "--m", "5", "--s", "3", "--a", "3", "--b", "5")
    assert code == 0
    assert verify(parse(out), MagicSpec(15, 25, 15, 9)).ok


def test_construct_block_set(capsys, monkeypatch):
    code, out, _ = run(capsys, "construct", "block-set", "--a", "2", "--b", "4", "--c", "2")
    assert code == 0
    assert verify(parse(out), MagicSpec(4, 8, 4, 2)).ok
    # the README's odd set: MR(3,5) lifted to MRS(3,5;3)
    monkeypatch.delenv("HOLEY_CACHE", raising=False)
    _, built, _ = run(capsys, "construct", "block-set", "--a", "3", "--b", "5", "--c", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(built))
    assert run(capsys, "verify", "--spec", "9", "15", "5", "3")[:2] == (0, "OK row=110 col=66\n")


# sha256 of stdout, frozen before grid I/O and the Kotzig lift worked a
# row at a time; none of these commands needs a cache or a search
BYTE_PINS = {
    "construct two-per-column --m 100 --k 20":
        "3a9f32298ff7051828f62683e47eaa5e2b8ae9fd7b7b3622af8e41441a60e299",
    "construct stacked --m 3 --k 395 --s 3":
        "72ac6e9957a55b1a6e5f278054c7d04fbe9aa0277d6f00ea713ed762949f3a24",
    "construct nmss --m 5 --s 3 --t 41":
        "43c3179e2980fdf63054622cc83ae108ad776a9080e31bef9a261ccfbeff5d94",
    "construct product --m 5 --s 3 --a 2 --b 10":
        "c57ff79b9dd5f1e70febab6041a78b2819e5c7788d0ddc793d826cacc7dc292b",
    "construct block-set --a 4 --b 4 --c 9":
        "fbcb216521bdd479af6a6977d32eef4bdafd9f54cd19581ac5489de7cb598d82",
    "construct five-case --m 3 --s 2":
        "491950ccd93fbe4a2776f95b4c4796d9d258af2bf76c108ba0e73ca83df27683",
    "ingredient mr --a 9 --b 15":
        "3cfd407936624913f1d8fa18b5d30ff4071549339321e9f844b35233a2756945",
    "ingredient mrs --a 4 --b 6 --c 5":
        "ce21680de6b71d00e88961b294018dadf54805500c74de8b7a5a5808e680b113",
}


def test_outputs_match_byte_pins(capsys, monkeypatch):
    monkeypatch.delenv("HOLEY_CACHE", raising=False)
    for command, digest in BYTE_PINS.items():
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, ""), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_construct_failure_exits_one(capsys):
    code, out, err = run(capsys, "construct", "two-per-column", "--m", "4", "--k", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_nmss_gate_runs_before_any_search(capsys, monkeypatch):
    # MS(31;3) exists but NMSS(31,3;2) does not; the square's search would
    # run at the default 10^8-node budget
    def no_search(*args):
        raise AssertionError("search ran for a refused shape")

    monkeypatch.setattr(ingredients, "_search_assignment", no_search)
    code, out, err = run(capsys, "construct", "nmss", "--m", "31", "--s", "3", "--t", "2")
    assert (code, out) == (1, "")
    assert "NMSS(31,3;2)" in err


def test_product_refusal_names_the_missing_ingredient(capsys):
    # MR(6,6;6,6) exists (Classical); only the MR(2,2) ingredient does not
    code, out, err = run(capsys, "construct", "product", "--m", "3", "--s", "3",
                         "--a", "2", "--b", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: no MR(2,2): need ")
    assert "MR(6,6;6,6)" not in err


def test_construct_matches_realize(capsys):
    # one shape per decide route that has a construct subcommand
    for argv, shape in [
        (["two-per-column", "--m", "5", "--k", "2"], (5, 10, 4, 2)),
        (["stacked", "--m", "5", "--k", "5", "--s", "3"], (5, 25, 15, 3)),
        (["product", "--m", "5", "--s", "3", "--a", "3", "--b", "5"], (15, 25, 15, 9)),
        (["five-case", "--m", "3", "--s", "2"], (6, 9, 6, 4)),
        # the smallest shape decide routes to BlockSet with even sides
        (["block-set", "--a", "4", "--b", "10", "--c", "2"], (8, 20, 10, 4)),
    ]:
        assert run(capsys, "construct", *argv) == (0, serialize(realize(*shape)), "")
    assert existence.decide(8, 20, 10, 4).route == "BlockSet"
    assert list(construct.BUILDS) == list(existence.ROUTES)


def test_construct_gate_failures(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the five-case gate must fail before any search")

    monkeypatch.setattr(ingredients, "magic_square_holes", no_search)
    for argv, want in [
        (["five-case", "--m", "0", "--s", "2"], 2),
        (["five-case", "--m", "3", "--s", "3"], 1),
        (["five-case", "--m", "1", "--s", "2"], 1),
    ]:
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (want, "")
        assert err.startswith("error:")
    monkeypatch.undo()
    for argv in [["stacked", "--m", "3", "--k", "2", "--s", "1"],
                 ["block-set", "--a", "2", "--b", "2", "--c", "1"]]:
        code, out, err = run(capsys, "construct", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")


def test_construct_pipes_into_verify(capsys, monkeypatch):
    _, built, _ = run(capsys, "construct", "two-per-column", "--m", "5", "--k", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(built))
    code, out, _ = run(capsys, "verify", "--spec", "5", "10", "4", "2")
    assert code == 0
    assert out == "OK row=38 col=19\n"


def test_verify_trivial_grid(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n0\n"))
    code, out, _ = run(capsys, "verify", "--spec", "1", "1", "1", "1")
    assert code == 0
    assert out == "OK row=0 col=0\n"


def test_verify_from_file(capsys, tmp_path):
    path = tmp_path / "grid.mrx"
    path.write_text(golden.SQUARE_6_4)
    code, out, _ = run(capsys, "verify", str(path), "--spec", "6", "6", "4", "4")
    assert code == 0
    assert out == "OK row=46 col=46\n"


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n0 3\n2 1\n"))
    code, out, _ = run(capsys, "verify", "--spec", "2", "2", "2", "2")
    assert code == 1
    assert out.startswith("FAIL ")
    assert "ColSum(0)" in out


def test_verify_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not mrx"))
    code, _, err = run(capsys, "verify", "--spec", "1", "1", "1", "1")
    assert code == 1
    assert err.startswith("error:")


def test_verify_nonpositive_spec_exits_two(capsys, monkeypatch):
    # a usage error, as for every other command's sizes; a well-formed but
    # impossible spec is still a domain failure
    for spec, want in [("0 0 0 0", 2), ("0 4 4 2", 2), ("1 1 -1 1", 2), ("2 2 1 2", 1)]:
        monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n0\n"))
        code, out, err = run(capsys, "verify", "--spec", *spec.split())
        assert (code, out) == (want, "")
        assert err.startswith("error: --spec entries must be positive" if want == 2 else "error:")


def test_out_of_memory_exits_one(capsys, monkeypatch):
    # a stand-in build: a grid this size is never allocated here
    def too_big(m, k, **kw):
        raise MemoryError

    monkeypatch.setitem(construct.BUILDS, "TwoPerColumn", too_big)
    code, out, err = run(capsys, "construct", "two-per-column", "--m", "100000", "--k", "100000")
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    "kotzig --s 2 --k 100000000000000000000000",
    "construct two-per-column --m 2 --k 100000000000000000000000",
    "ingredient mr --a 100000000000000000000 --b 100000000000000000000",
    "oracle --m 100000000000000000000 --n 100000000000000000000 --r 2 --s 2 --cap 0",
], ids=["kotzig", "two_per_column", "ingredient_mr", "oracle"])
def test_sizes_past_the_index_range_exit_one(capsys, argv):
    # each fails on its first index-sized operation, before allocating
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: too large: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "construct stacked --m 100000000000000000000001 --k 1 --s 3",
    "construct nmss --m 100000000000000000001 --s 3 --t 1",
], ids=["stacked", "nmss"])
def test_squares_with_more_cells_than_budget_exit_one_at_once(argv):
    # the square search refuses before its set-up; the child runs under an
    # address-space cap and a timeout, so a set-up that grows without bound
    # fails this test instead of exhausting the machine's memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HOLEY_CACHE", None)
    done = subprocess.run([sys.executable, "-m", "holeymagic.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=20,
                          preexec_fn=cap)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: MS(")
    assert "Traceback" not in done.stderr


def test_verify_undecodable_file_exits_one(capsys, tmp_path):
    path = tmp_path / "grid.mrx"
    path.write_bytes(b"1 1\n\xff\n")
    code, out, err = run(capsys, "verify", str(path), "--spec", "1", "1", "1", "1")
    assert (code, out) == (1, "")
    assert err == "error: line 2: undecodable byte 0xff: invalid start byte\n"


def test_verify_undecodable_stdin_exits_one(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"1 1\n\xff\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "--spec", "1", "1", "1", "1")
    assert (code, out) == (1, "")
    assert err == "error: line 2: undecodable byte 0xff: invalid start byte\n"


def test_decide_exists(capsys):
    code, out, _ = run(capsys, "decide", "--m", "5", "--n", "10", "--r", "4", "--s", "2")
    assert (code, out) == (0, "EXISTS TwoPerColumn\n")


def test_decide_not_exists(capsys):
    code, out, _ = run(capsys, "decide", "--m", "3", "--n", "3", "--r", "2", "--s", "2")
    assert (code, out) == (1, "NOT-EXISTS TwoTwoSquare\n")


def test_decide_unknown(capsys):
    code, out, _ = run(capsys, "decide", "--m", "9", "--n", "15", "--r", "10", "--s", "6")
    assert (code, out) == (0, "UNKNOWN\n")


def test_oracle_zero_count(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "3", "--n", "3", "--r", "2", "--s", "2")
    assert code == 0
    assert out == "count=0 exhausted=true\n"


def test_oracle_witness_output(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--n", "4", "--r", "4", "--s", "2",
                       "--cap", "1")
    assert code == 0
    head, _, rest = out.partition("\n")
    assert head == "count=48 exhausted=true"
    assert verify(parse(rest), MagicSpec(2, 4, 4, 2)).ok


def test_oracle_counts_past_14_values_at_the_default_budget(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "4", "--n", "4", "--r", "4", "--s", "4",
                       "--cap", "0")
    assert (code, out) == (0, "count=549504 exhausted=true\n")


def test_oracle_budget_flag(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "3", "--n", "3", "--r", "3", "--s", "3",
                       "--cap", "0", "--budget", "10")
    assert code == 0
    assert out.endswith("exhausted=false\n")


def test_kotzig_output(capsys):
    code, out, _ = run(capsys, "kotzig", "--s", "3", "--k", "9")
    assert code == 0
    assert out == "\n".join(" ".join(map(str, row)) for row in golden.KOTZIG_3_9) + "\n"


def test_kotzig_parity_error(capsys):
    code, _, err = run(capsys, "kotzig", "--s", "3", "--k", "4")
    assert code == 1
    assert err.startswith("error:")


def test_ingredient_commands(capsys):
    code, out, _ = run(capsys, "ingredient", "ms", "--m", "5", "--s", "3")
    assert (code, out) == (0, golden.SQUARE_5_3)
    code, out, _ = run(capsys, "ingredient", "mr", "--a", "3", "--b", "5")
    assert code == 0
    assert verify(parse(out), MagicSpec(3, 5, 5, 3)).ok
    code, out, _ = run(capsys, "ingredient", "mrs", "--a", "3", "--b", "3", "--c", "1")
    assert code == 0
    assert verify(parse(out), MagicSpec(3, 3, 3, 3)).ok


def test_ingredient_cache_flag(capsys, tmp_path):
    path = tmp_path / "cache.mrx"
    code, first, _ = run(capsys, "ingredient", "ms", "--m", "7", "--s", "4",
                         "--cache", str(path))
    assert code == 0
    assert path.exists()
    code, second, _ = run(capsys, "ingredient", "ms", "--m", "7", "--s", "4",
                          "--cache", str(path))
    assert code == 0
    assert first == second


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    # the reused parser must not carry the previous call's --cache over
    # MS(7;3) is searched, so it is stored; closed forms never touch a cache
    flag, path = tmp_path / "flagcache.mrx", tmp_path / "envcache.mrx"
    assert run(capsys, "ingredient", "ms", "--m", "7", "--s", "3", "--cache", str(flag))[0] == 0
    monkeypatch.setenv("HOLEY_CACHE", str(path))
    code, _, _ = run(capsys, "ingredient", "ms", "--m", "7", "--s", "3")
    assert code == 0
    assert path.exists()


def test_undecodable_cache_exits_one(capsys, tmp_path):
    path = tmp_path / "cache.mrx"
    path.write_bytes(b"KEY ms 7 3 -\n7 7\n\xff\xfe 1\n")
    code, out, err = run(capsys, "ingredient", "ms", "--m", "7", "--s", "3",
                         "--cache", str(path))
    assert (code, out) == (1, "")
    assert "undecodable" in err


def test_unwritable_cache_exits_one(capsys, tmp_path):
    path = tmp_path / "missing" / "x.mrx"
    code, out, err = run(capsys, "ingredient", "ms", "--m", "7", "--s", "3",
                         "--cache", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write cache")


def test_unreadable_cache_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "ingredient", "ms", "--m", "7", "--s", "3",
                         "--cache", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read cache")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "construct")[0] == 2
    assert run(capsys, "construct", "bogus")[0] == 2
    assert run(capsys, "decide", "--m", "3")[0] == 2
    assert run(capsys, "kotzig", "--s", "0", "--k", "3")[0] == 2
    # an MRS named long side first is malformed, not refuted: MRS(3,5;c) exists
    for argv in [["ingredient", "mrs", "--a", "5", "--b", "3", "--c", "1"],
                 ["construct", "block-set", "--a", "5", "--b", "3", "--c", "3"]]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "short side first" in err
    # a usage error leaves nothing behind in the reused parser
    code, out, err = run(capsys, "decide", "--m", "5", "--n", "10", "--r", "4", "--s", "2")
    assert (code, out, err) == (0, "EXISTS TwoPerColumn\n", "")


def test_help_exits_zero(capsys):
    first = run(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: holeymagic")
    assert run(capsys, "--help") == first


def test_oracle_default_budget(capsys, monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["node_budget"])
        return oracle.EnumerationResult(0, (), True)

    monkeypatch.setattr(oracle, "enumerate", spy)
    argv = ["oracle", "--m", "3", "--n", "3", "--r", "2", "--s", "2"]
    assert run(capsys, *argv, "--budget", "10")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert seen == [10, oracle.DEFAULT_NODE_BUDGET]


def test_dispatch_builds_parser_once(capsys, monkeypatch):
    # this call or an earlier test built the parser; no later call builds one
    run(capsys, "decide", "--m", "3", "--n", "3", "--r", "2", "--s", "2")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run(capsys, "decide", "--m", "3", "--n", "3", "--r", "2", "--s", "2")
    run(capsys, "kotzig", "--s", "3", "--k", "9")
    run(capsys, "decide", "--m", "3")
    assert built == []


def test_module_entry_point_pipe():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "holeymagic.cli"]
    build = subprocess.Popen(cli + ["construct", "two-per-column", "--m", "3", "--k", "2"],
                             stdout=subprocess.PIPE, env=env)
    check = subprocess.run(cli + ["verify", "--spec", "3", "6", "4", "2"], stdin=build.stdout,
                           capture_output=True, text=True, env=env, timeout=60)
    build.stdout.close()
    assert build.wait(timeout=60) == 0
    assert (check.returncode, check.stdout, check.stderr) == (0, "OK row=22 col=11\n", "")


def _surface(parser, path="holeymagic"):
    """One row per subcommand group and per argument, walking the parser
    depth-first; the -h actions are left out."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield (path, action.dest, action.required,
                   tuple((choice.dest, choice.help) for choice in action._choices_actions))
            for name, sub in action.choices.items():
                yield from _surface(sub, f"{path} {name}")
        elif not isinstance(action, argparse._HelpAction):
            yield (path, tuple(action.option_strings), action.dest, action.type,
                   action.required, action.default, action.nargs, action.metavar, action.help)


def _ints(path, flags):
    return [(path, (f"--{f}",), f, int, True, None, None, None, None) for f in flags.split()]


def _cache(path):
    return [(path, ("--cache",), "cache", None, False, None, None, "PATH",
             "ingredient cache file (default: $HOLEY_CACHE if set)")]


def test_cli_surface_is_pinned():
    # compared as parser structure, not --help text, which differs across
    # Python versions ("optional arguments:" before 3.11, "options:" after)
    c, i = "holeymagic construct", "holeymagic ingredient"
    expected = [
        ("holeymagic", "command", True, (
            ("construct", "build a grid and print it as MRX"),
            ("verify", "check an MRX grid against a spec"),
            ("decide", "existence verdict for MR(m,n;r,s)"),
            ("oracle", "brute-force enumeration at desk scale"),
            ("kotzig", "print an s x k Kotzig array"),
            ("ingredient", "fetch or search an ingredient grid"))),
        (c, "construction", True, (
            ("two-per-column", "MR(m,km;2k,2)"),
            ("stacked", "MR(m,km;ks,s)"),
            ("nmss", "t separate squares sharing one constant"),
            ("product", "MR(am,bm;bs,as) from MS(m;s) x MR(a,b)"),
            ("five-case", "MR(2m,3m;3s,2s)"),
            ("block-set", "MR(ac,bc;b,a) from an MRS(a,b;c)"))),
        *_ints(f"{c} two-per-column", "m k"),
        *_ints(f"{c} stacked", "m k s"), *_cache(f"{c} stacked"),
        *_ints(f"{c} nmss", "m s t"), *_cache(f"{c} nmss"),
        *_ints(f"{c} product", "m s a b"), *_cache(f"{c} product"),
        *_ints(f"{c} five-case", "m s"), *_cache(f"{c} five-case"),
        *_ints(f"{c} block-set", "a b c"), *_cache(f"{c} block-set"),
        ("holeymagic verify", (), "path", None, False, None, "?", None,
         "MRX file (default: standard input)"),
        ("holeymagic verify", ("--spec",), "spec", int, True, None, 4, ("M", "N", "R", "S"), None),
        *_ints("holeymagic decide", "m n r s"),
        *_ints("holeymagic oracle", "m n r s"),
        ("holeymagic oracle", ("--cap",), "cap", int, False, 4, None, None,
         "witnesses to keep (default 4)"),
        ("holeymagic oracle", ("--budget",), "budget", int, False, oracle.DEFAULT_NODE_BUDGET,
         None, None, "search node budget"),
        *_ints("holeymagic kotzig", "s k"),
        (i, "ingredient", True, (
            ("ms", "s-diagonal magic square with holes"),
            ("mr", "classical full magic rectangle"),
            ("mrs", "magic rectangle set, printed as MRX blocks"))),
        *_ints(f"{i} ms", "m s"), *_cache(f"{i} ms"),
        *_ints(f"{i} mr", "a b"), *_cache(f"{i} mr"),
        *_ints(f"{i} mrs", "a b c"), *_cache(f"{i} mrs"),
    ]
    assert len(expected) == 49
    assert list(_surface(_build_parser())) == expected
