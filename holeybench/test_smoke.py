"""Smoke run of the benchmark at tiny sizes.

    python3 -m pytest holeybench

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the independent checker rejects mutated outputs, and that a wrong
output makes the benchmark exit non-zero.
"""

import json
import os
import subprocess

import pytest

from holeybench import check, run, workloads

hm = run.import_library()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_FRACTION", 0.001)  # one shape per route
    monkeypatch.setattr(workloads, "PIPE_PER_COMMAND", 1)
    monkeypatch.setattr(workloads, "ORACLE_MAX_TOTAL", 12)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return [json.loads(line) for line in lines if not line.startswith('{"env"')]


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(tiny, capsys, name, traced):
    key = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    [result] = _result(capsys, ["--workload", name, "--seed", "3", "--seconds", "0",
                                "--trace", str(traced)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if not traced:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_all_runs_each_workload_in_its_own_process(monkeypatch, capsys):
    children = []

    def fake_run(argv, **kwargs):
        name = argv[argv.index("--workload") + 1]
        children.append(name)
        return subprocess.CompletedProcess(argv, 1 if name == "pipe" else 0,
                                           stdout=f'{{"ran": "{name}"}}\n')

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0"]) == 1
    assert children == ["sweep", "pipe"]  # stops at the first failure
    assert capsys.readouterr().out == '{"ran": "sweep"}\n{"ran": "pipe"}\n'


def test_cache_entries_are_read_back(tmp_path):
    w = workloads.Pipe(hm, 1, str(tmp_path))
    w.setup()
    assert w.cache_entries(w.stock_keys) == len(workloads._stock_keys())
    open(w.cache_path, "w").close()  # a cache that kept nothing
    assert w.cache_entries(w.stock_keys) == 0


def _rows(grid):
    return [list(row) for row in grid.cells]


def test_checker_accepts_library_grids():
    check.magic(_rows(hm.two_per_column(5, 2)), 5, 10, 4, 2)
    check.magic(check.read_one(hm.serialize(hm.realize(15, 25, 15, 9))), 15, 25, 15, 9)
    check.s_diagonal(_rows(hm.magic_square_holes(5, 3)), 5, 3)


@pytest.mark.parametrize("mutation", ["bump", "blank", "move", "swap_in_row"])
def test_checker_rejects_mutated_grid(mutation):
    rows = _rows(hm.two_per_column(5, 2))
    filled = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is not None]
    holes = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is None]
    (i, j), (p, q) = filled[0], holes[0]
    if mutation == "bump":
        rows[i][j] += 1
    elif mutation == "blank":
        rows[i][j] = None
    elif mutation == "move":
        rows[p][q], rows[i][j] = rows[i][j], None
    else:  # row sums and fill counts hold, two column sums do not
        j2 = next(c for r, c in filled[1:] if r == i)
        rows[i][j], rows[i][j2] = rows[i][j2], rows[i][j]
    with pytest.raises(check.WrongOutput):
        check.magic(rows, 5, 10, 4, 2)
    text = "5 10\n" + "".join(" ".join("." if v is None else str(v) for v in row) + "\n"
                              for row in rows)
    with pytest.raises(check.WrongOutput):
        check.magic(check.read_one(text), 5, 10, 4, 2)


def test_checker_rejects_wrong_answers():
    with pytest.raises(check.WrongOutput):
        check.read_one("2 2\n0 .\n")  # truncated
    with pytest.raises(check.WrongOutput):
        check.verify_line("OK row=10 col=5\n", 5, 10, 4, 2)
    with pytest.raises(check.WrongOutput):
        check.decide_line("EXISTS Classical\n", 0, (2, 3, 2, 3))  # parity forbids it
    with pytest.raises(check.WrongOutput):
        check.decide_line("NOT-EXISTS ShapeInfeasible\n", 0, (1, 2, 3, 4))  # wrong exit
    with pytest.raises(check.WrongOutput):
        check.kotzig_rows("0 1\n0 1\n", 2, 2)
    witness = hm.oracle.enumerate(2, 4, 4, 2, witness_cap=1).witnesses
    with pytest.raises(check.WrongOutput):
        check.oracle_answer((2, 4, 4, 2), "not-exists", 1, True, witness)
    with pytest.raises(check.WrongOutput):
        check.oracle_answer((2, 4, 4, 2), "exists", 0, True, ())


def test_wrong_output_exits_nonzero(tiny, monkeypatch, capsys):
    good = hm.realize

    def bad_realize(*shape, **kw):
        grid = good(*shape, **kw)
        cells = [list(row) for row in grid.cells]
        i, j = next((i, j) for i, row in enumerate(cells) for j, v in enumerate(row)
                    if v is not None)
        cells[i][j] += 1
        return hm.HoleyGrid.from_rows(cells)

    monkeypatch.setattr(hm, "realize", bad_realize)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "0"]) == 1
    assert "wrong output" in capsys.readouterr().err


def test_failures_are_tallied_not_raised(tiny, monkeypatch):
    def broken(*shape, **kw):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(hm, "realize", broken)
    env, result = run.run_workload(hm, "sweep", 1, 0, False)
    assert result["failed"] == result["attempted"] > 0
    assert env["failures"] == {"RecursionError": result["attempted"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(tiny, tmp_path, name):
    def ops(seed):
        w = workloads.WORKLOADS[name](hm, seed, str(tmp_path))
        w.setup()
        return w.ops

    assert ops(5) == ops(5)
    assert ops(5) != ops(6)
