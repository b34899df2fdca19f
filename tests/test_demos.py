"""The demos exit 1 when what they show is wrong, so running them guards
decide and the constructions."""

import dataclasses
import importlib.util
import pathlib
import sys

from holeymagic import Decision

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_atlas_exits_1_on_a_disagreement(monkeypatch):
    atlas = load("existence_atlas")
    monkeypatch.setattr(sys, "argv", ["existence_atlas", "--limit", "8"])
    assert atlas.main() == 0
    monkeypatch.setattr(atlas, "decide", lambda *shape: Decision("exists", route="Trivial"))
    assert atlas.main() == 1


def test_pipeline_exits_1_on_a_broken_stage(monkeypatch):
    pipeline = load("doubling_pipeline")
    assert pipeline.main() == 0
    real_verify = pipeline.verify

    def square_only(grid, spec):  # every stage after the seed square "breaks"
        report = real_verify(grid, spec)
        return report if grid.rows == grid.cols else dataclasses.replace(report, ok=False)

    monkeypatch.setattr(pipeline, "verify", square_only)
    assert pipeline.main() == 1
