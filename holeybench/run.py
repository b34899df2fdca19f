"""Run holeymagic benchmark workloads and print their metrics.

    python3 holeybench/run.py --workload sweep|pipe|oracle|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory.  A workload's pass (a seeded list of operations) repeats
until S seconds have been measured.  `all` runs each workload in a child
process of its own, so none inherits another's memory or warm state.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  Every output goes through
the independent checker in check.py, and a wrong output makes the run exit
1.  For each workload the run prints a JSON line {"env": ...} describing the
run, then one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, ROOT)

from holeybench import check, trace, workloads  # noqa: E402

# Set-up repeats per run, at least SETUP_REPEATS and until SETUP_SECONDS of
# set-up have been timed; setup_s is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

# Seconds each reference probe takes on the machine the benchmark was tuned
# on (Intel Xeon, 2 vCPUs, Python 3.11) at its usual speed.  See `reference`
# and `reference_text`.
REFERENCE_S = 0.4e-3
REFERENCE_TEXT_S = 0.8e-3
# Reference timings on each side of an operation that estimate the speed
# the machine ran it at.
REFERENCE_WINDOW = 4

# Pinned searches for nodes-to-solution, with their node counts at the seed
# state.  A kernel-only change must keep these counts.
PINNED = {
    "ms_8_4": (lambda hm, b: hm.magic_square_holes(8, 4, budget=b), 225_199),
    "ms_8_4_fivecase": (lambda hm, b: hm.magic_square_holes(
        8, 4, hm.DiagonalProfile(((1, 0, 7),)), budget=b), 213_750),
    "mr_4_6": (lambda hm, b: hm.classical_rectangle(4, 6, budget=b), 7_836),
    "mrs_3_3_3": (lambda hm, b: hm.magic_rectangle_set(3, 3, 3, budget=b), 28_801),
}
# Bisection gives up, and reports -1, past this multiple of the pinned count.
PROBE_CAP = 8

ROUTES = ["Trivial", "Classical", "TwoPerColumn", "Stacked", "Product", "FiveCase", "BlockSet"]


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_library():
    """holeymagic from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import holeymagic
        import holeymagic.cli  # the package does not import its CLI itself
    except ImportError as exc:
        sys.exit(f"holeybench: cannot import holeymagic from {src}: {exc}")
    if not os.path.abspath(holeymagic.__file__).startswith(src + os.sep):
        sys.exit(f"holeybench: holeymagic came from {holeymagic.__file__}, not {src}")
    return holeymagic


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of integer and list work.

    It runs before every set-up, and before every operation of the
    workloads it times (see PROBES).  On a shared machine other tenants
    slow every process down, by up to a third for seconds at a time; the
    loop slows with the program, so timings divided by it (and multiplied
    by REFERENCE_S) read nearly the same on a busy machine as on a quiet
    one.
    """
    t0 = perf_counter()
    a = list(range(64))
    s = 0
    for k in range(2500):
        i = k & 63
        s += a[i] * 3 - (a[(i * 7) & 63] >> 1)
        if s > 1_000_000:
            s -= 999
    return perf_counter() - t0


def reference_text() -> float:
    """Seconds taken by fixed standard-library work like a CLI call's:
    build an argparse parser and parse a command line, then format and
    re-read a small grid of numbers.

    It times the `pipe` workload's operations, which are mostly such work.
    When the shared machine is busy, this work and integer loops slow by
    different factors.  Over ten minutes of recorded `pipe` passes, scaling
    by this probe instead of `reference` cut the spread of pass time from
    4.5% to 2.0%, and of the median operation from 4.0% to 0.8%
    (interquartile range over median of 23 runs of eight passes each).
    """
    t0 = perf_counter()
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        sub = commands.add_parser(name)
        sub.add_argument("--m", type=int)
        sub.add_argument("--k", type=int)
    parser.parse_args(["a", "--m", "3", "--k", "4"])
    text = "\n".join(" ".join(str(i * j) for j in range(12)) for i in range(20))
    sum(int(x) for line in text.splitlines() for x in line.split())
    return perf_counter() - t0


# The probe that times each workload's operations, with its usual seconds:
# the one whose work is most like the operations'.  Set-up, which stocks
# caches and calls decide, is timed with `reference` on every workload.
PROBES = {"sweep": (reference, REFERENCE_S), "oracle": (reference, REFERENCE_S),
          "pipe": (reference_text, REFERENCE_TEXT_S)}


def normalized(times, refs, usual_s) -> list:
    """Operation times scaled to the reference speed, at which the probe
    takes usual_s.  refs[i] was taken just before operation i, refs[-1]
    after the last one."""
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 2]
        out.append(t * usual_s / statistics.median(window))
    return out


class Pass(NamedTuple):
    times: list  # seconds per operation, scaled to the reference speed
    raw: list  # seconds per operation as measured
    refs: list
    kinds: list  # Outcome.kind per operation
    layers: Optional[dict]  # per-layer metrics of a traced pass


class Bench:
    """Runs a workload's passes and checks every output."""

    def __init__(self, workload):
        self.w = workload
        self.probe, self.usual_s = PROBES[workload.name]
        self.verified: dict = {}
        self.failures: dict = {}

    def run_pass(self, tracer=None) -> Pass:
        """Run every operation once.  Checks run between operations,
        outside the timed region; a wrong output raises WrongOutput."""
        w = self.w
        w.begin_pass()
        raw, kinds, refs = [], [], []
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            for i, op in enumerate(w.ops):
                refs.append(self.probe())
                t0 = perf_counter()
                outcome = w.run(op)
                raw.append(perf_counter() - t0)
                kinds.append(outcome.kind)
                self._check(i, op, outcome)
            refs.append(self.probe())
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = None
        if tracer is not None:
            # span times get the same scaling as operation times, per pass
            scale = self.usual_s / statistics.median(refs)
            for span in tracer.spans:
                span.dur *= scale
                span.child_time *= scale
            layers = trace.layer_metrics(tracer.spans)
            stored = [s.info for s in tracer.spans if s.name == "ingredients.cache.store"]
            layers["ingredients.cache.entries"] = w.cache_entries(w.stock_keys + stored)
            layers["ingredients.cache.bytes"] = w.cache_bytes()
            layers.update(reach(w, kinds))
        return Pass(normalized(raw, refs, self.usual_s), raw, refs, kinds, layers)

    def _check(self, i, op, outcome) -> None:
        # an output equal to one already verified for this operation is
        # verified; comparing is far cheaper than re-checking a big grid
        key = (outcome.kind, outcome.value)
        if self.verified.get(i) != key:
            self.w.check(op, outcome)
            self.verified[i] = key
        if outcome.kind not in ("ok", "inconclusive"):
            self.failures[outcome.kind] = self.failures.get(outcome.kind, 0) + 1


def reach(w, kinds) -> dict:
    """Reached/skipped tallies per decide route, and the failed share."""
    out = {}
    for route in ROUTES:
        out[f"construct.reached.{route}"] = 0
        out[f"construct.skipped.{route}"] = 0
    for op, kind in zip(w.ops, kinds):
        route = w.route_of(op)
        if route is not None:
            out[f"construct.{'reached' if kind == 'ok' else 'skipped'}.{route}"] += 1
    out["failed_frac"] = 1 - kinds.count("ok") / len(kinds)
    return out


def op_times(passes) -> list:
    """Each operation's median time over the passes (every pass repeats the
    same operations with the same outcomes)."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def end_to_end(passes, setup_times) -> dict:
    times = op_times(passes)
    kinds = [k for p in passes for k in p.kinds]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "conclusive_frac": kinds.count("ok") / len(kinds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# nodes_to_solution by pinned name, computed once per process: the searches
# do not depend on the workload and take seconds.
_nodes_to_solution: dict = {}


def nodes_to_solution(hm, search, pinned: int) -> int:
    """Least node budget at which a deterministic search succeeds: check
    the pinned count and one below it, and bisect only if either differs."""
    def ok(budget):
        try:
            search(hm, budget)
            return True
        except hm.SearchBudgetExceeded:
            return False

    pinned_ok = ok(pinned)
    if pinned_ok and (pinned == 0 or not ok(pinned - 1)):
        return pinned
    lo, hi = -1, pinned  # lo fails (or is below every budget), hi succeeds
    if not pinned_ok:
        lo, hi = pinned, 2 * pinned
        while not ok(hi):
            if hi > PROBE_CAP * pinned:
                return -1
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def per_layer(hm, untraced, traced) -> dict:
    """Median of each layer metric over the traced passes (counts repeat
    exactly from pass to pass), the pinned node counts, and the tracing
    overhead against the untraced passes of the same run."""
    layers = [p.layers for p in traced]
    out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    for name, (search, pinned) in PINNED.items():
        if name not in _nodes_to_solution:
            _nodes_to_solution[name] = nodes_to_solution(hm, search, pinned)
        out[f"ingredients.nodes_to_solution.{name}"] = _nodes_to_solution[name]
    out["trace.overhead_frac"] = sum(op_times(traced)) / sum(op_times(untraced)) - 1
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None where it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def timed_setup(w) -> float:
    """Seconds one set-up takes, timed step by step: each step is scaled by
    the reference timings next to it, like an operation."""
    raw, refs = [], []
    for step in w.setup_steps():
        refs.append(reference())
        t0 = perf_counter()
        step()
        raw.append(perf_counter() - t0)
    refs.append(reference())
    return sum(normalized(raw, refs, REFERENCE_S))


def run_workload(hm, name: str, seed: int, seconds: float, traced: bool):
    """Set up, measure and check one workload; return (env, result)."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "holeybench"),
                                     prefix=".work-") as workdir:
        w = workloads.WORKLOADS[name](hm, seed, workdir)
        setup_times, setup_spent = [], 0.0
        while len(setup_times) < SETUP_REPEATS or setup_spent < SETUP_SECONDS:
            t0 = perf_counter()
            setup_times.append(timed_setup(w))
            setup_spent += perf_counter() - t0
        cache_entries = w.cache_entries(w.stock_keys)

        bench = Bench(w)
        tracer = trace.Tracer(hm) if traced else None
        untraced_passes, traced_passes = [], []
        # a traced run alternates which kind of pass comes first, so that
        # warm-up does not bias the tracing overhead
        order = [None] if tracer is None else [None, tracer]
        start = perf_counter()
        while True:
            for t in order:
                (untraced_passes if t is None else traced_passes).append(bench.run_pass(t))
            if perf_counter() - start >= seconds:
                break
            order.reverse()
        if tracer is None:
            metrics = end_to_end(untraced_passes, setup_times)
        else:
            metrics = per_layer(hm, untraced_passes, traced_passes)
        cache_bytes = w.cache_bytes()

    passes = untraced_passes + traced_passes
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": git_commit(), "holeymagic": hm.__version__,
        "ops_per_pass": len(w.ops), "passes": len(passes), "setups": len(setup_times),
        "cache_entries_stocked": cache_entries, "cache_bytes_at_end": cache_bytes,
        "failures": bench.failures,
        "reference_ms": statistics.median(r for p in passes for r in p.refs) * 1e3,
        "pass_wall_s": [round(sum(p.times), 4) for p in passes],
        "raw_pass_wall_s": [round(sum(p.raw), 4) for p in passes],
    }
    units = metric_units()
    result = {
        "correct": True,
        "attempted": sum(len(p.kinds) for p in passes),
        "failed": sum(bench.failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sweep, pipe, oracle, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    hm = import_library()
    try:
        env, result = run_workload(hm, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except check.WrongOutput as exc:
        print(f"holeybench: {args.workload}: wrong output: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in turn, each in a child process of its own, and
    pass its output through; stop at the first that fails."""
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        if child.returncode != 0:
            return child.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
