"""Tests of the benchmark itself: span arithmetic, output checks, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("LEFPATH_JOBS", None)
    return env


# -- self time ---------------------------------------------------------------------


def test_self_times_subtract_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_count_overlapping_children_once():
    # children [2, 6] and [4, 8] of [0, 10] cover [2, 8]: 6 seconds.
    start = [0.0, 4.0, 2.0]
    end = [10.0, 8.0, 6.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 4.0


def test_tracer_spans_calls_and_generators():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return [1, 2]

    wrapped_leaf = spans._span_wrapper(tracer, "lattice.enumerate_paths", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    def gen(m, i, system_filter="vertex_disjoint"):
        yield from (wrapped_leaf(), wrapped_leaf())

    wrapped_outer = spans._span_wrapper(tracer, "lattice.path_matrix", outer)
    wrapped_gen = spans._span_wrapper(tracer, "lattice.enumerate_systems", gen)
    assert wrapped_outer() == [1, 2, 1, 2]
    assert list(wrapped_gen(6, 2, "doubly_vertex_disjoint")) == [[1, 2], [1, 2]]

    summary = spans.Summary()
    summary.add(json.loads(json.dumps(tracer.to_json())))
    # outer: ticks 0..5, children 1..2 and 3..4 -> 5 - 2 = 3.
    assert summary.self_s["lattice.path_matrix"] == 3.0
    assert summary.calls["lattice.enumerate_paths"] == 4
    assert summary.counters["lattice.paths_materialised"] == 8
    # creation is its own span; each next() (two items, one StopIteration)
    # is a span named after the function.
    assert summary.calls["lattice.enumerate_systems"] == 1
    assert "lattice.enumerate_systems.create" in summary.self_s
    assert summary.counters["lattice.systems.doubly_vertex_disjoint"] == 2
    assert summary.module_self_s("lattice") == pytest.approx(sum(summary.self_s.values()))


# -- checks against references ----------------------------------------------------


class _ReplayRunner:
    """Stands in for run.Runner: every step 'prints' a canned stdout."""

    def __init__(self, stdout_of):
        self.stdout_of = stdout_of

    def argv(self, step, trace_out=None):
        return [step.key]

    def invoke(self, key, argv):
        return run.Outcome(key, 0, 1.0, 1.0, 10.0, self.stdout_of[key], b"")


def _replayed_outputs(references):
    out = {}
    for key, ref in references.items():
        if key.startswith("cli lattice"):
            text = " ".join(f"{k}={v}" for k, v in ref.items()) + "\n"
        else:
            text = json.dumps(dict(ref, schema_version=1, inputs={}), indent=2)
        out[key] = text.encode()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_outputs_pass_and_a_perturbed_value_fails(name):
    references = workloads.load_references(name)
    _, steps = workloads.WORKLOADS[name].pick(run.DEFAULT_SEED)
    runner = _ReplayRunner(_replayed_outputs(references))
    done = run.run_pass(runner, steps, references)
    assert all(o.ok for o in done.outcomes)

    perturbed = copy.deepcopy(references)
    _perturb_last_scalar(perturbed[steps[-1].key])
    done = run.run_pass(runner, steps, perturbed)
    failed = sum(not o.ok for o in done.outcomes)
    assert failed / len(done.outcomes) > 0


def _perturb_last_scalar(node) -> bool:
    """Change the last int, bool or str leaf of a nested reference in place."""
    items = list(node.items()) if isinstance(node, dict) else list(enumerate(node))
    for key, value in reversed(items):
        if isinstance(value, (dict, list)):
            if _perturb_last_scalar(value):
                return True
        elif isinstance(value, (bool, int, str)):
            node[key] = (not value) if isinstance(value, bool) else value + type(value)(1)
            return True
    return False


def test_check_accepts_added_columns_and_rejects_changes():
    ref = {"results": [{"m": 5, "i": 3, "det_sign": -1}], "all_checks_pass": True}
    added = {"schema_version": 2, "results": [{"m": 5, "i": 3, "det_sign": -1, "signature": 1}],
             "all_checks_pass": True}
    assert workloads.check(ref, 0, json.dumps(added))
    changed = copy.deepcopy(added)
    changed["results"][0]["det_sign"] = 1
    assert not workloads.check(ref, 0, json.dumps(changed))
    assert not workloads.check(ref, 1, json.dumps(added))
    missing = {"results": [{"m": 5, "i": 3}], "all_checks_pass": True}
    assert not workloads.check(ref, 0, json.dumps(missing))
    # A boolean column must stay boolean.
    assert not workloads.check({"ok": True}, 0, json.dumps({"ok": 1}))


def test_every_seeded_step_has_a_reference():
    for name, workload in workloads.WORKLOADS.items():
        references = workloads.load_references(name)
        assert {s.key for s in workload.all_steps()} == set(references)


def test_seed_picks_inputs_deterministically():
    for workload in workloads.WORKLOADS.values():
        assert workload.pick(7) == workload.pick(7)
        picked = {json.dumps(workload.pick(seed)[0]) for seed in range(40)}
        assert len(picked) == len(workload.choices)


# -- metric names and the printed result ---------------------------------------------


def test_metric_names_units_and_benchmark_json_agree():
    end_to_end = list(run.END_TO_END)
    for name, unit in end_to_end + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    names = [n for n, _ in end_to_end + list(run.PER_LAYER)]
    assert len(names) == len(set(names))
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == end_to_end
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_prints_every_metric_with_its_unit(trace):
    units = run.PER_LAYER if trace else run.END_TO_END
    metrics = {name: (1.5, [1.0, 1.5, 2.0]) if k % 2 else 0.25 for k, (name, _) in enumerate(units)}
    also = () if trace else run.RAW_TIMES
    metrics.update({name: 2.0 for name, _ in also})
    lines = run.result_lines(metrics, units, 1, 4, also)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
    assert set(result["metrics"]) == {name for name, _ in units}
    for name, unit in units:
        assert result["metrics"][name]["unit"] == unit
    for name, unit in tuple(units) + tuple(also):
        assert any(line.startswith(f"# {name} = ") and f" {unit}" in line for line in lines)


# -- the traced child -----------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["hilbert", "5", "2"],
        ["scan", "--mode", "hilbert", "--m", "2..4", "--jobs", "2", "--format", "json"],
    ],
)
def test_traced_stdout_is_byte_identical(tmp_path, args):
    plain = subprocess.run(
        [sys.executable, "-m", "lefpath.cli", *args], env=_env(), capture_output=True, timeout=60
    )
    trace_file = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace-out", str(trace_file), "cli", *args],
        env=_env(),
        capture_output=True,
        timeout=60,
    )
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    summary = spans.summarize([trace_file])
    assert summary.calls["cli.main"] == 1
    assert summary.self_s["hilbert.hilbert_series"] > 0
    if "scan" in args:
        assert summary.calls["cli.task"] == 3


def test_every_library_step_has_a_runner():
    assert set(child.LIB) == {s.args[0] for w in workloads.WORKLOADS.values()
                              for s in w.all_steps() if s.kind == "lib"}


# -- guards -------------------------------------------------------------------------------


def test_a_runaway_allocation_fails_its_check(tmp_path):
    runner = run.Runner(ROOT, tmp_path, time.monotonic() + 60)
    outcome = runner.invoke("alloc", [sys.executable, "-c", "bytearray(2 << 30)"])
    assert outcome.exit_code != 0
    assert b"MemoryError" in outcome.stderr


def test_a_hung_child_is_killed_at_the_deadline(tmp_path):
    runner = run.Runner(ROOT, tmp_path, time.monotonic() + 2)
    began = time.monotonic()
    outcome = runner.invoke("hang", [sys.executable, "-c", "import time; time.sleep(60)"])
    assert outcome.exit_code == -1
    assert time.monotonic() - began < 10
    skipped = runner.invoke("late", [sys.executable, "-c", "pass"])
    assert skipped.exit_code == -1 and skipped.wall_s == 0.0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
