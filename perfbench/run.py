"""lefpath benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --regenerate-references

Run from the root of a lefpath checkout.  Every invocation is a child
process (``python3 -m lefpath.cli ...`` or ``perfbench/child.py``) with a
wall-clock timeout and an address-space limit, timed from spawn to exit,
with its CPU time and peak RSS read from ``os.wait4``.  Passes over the
workload repeat until the next one would end after ``--seconds``; metrics
are medians over passes.  Meanwhile ``probe.py`` times a fixed loop on
every CPU, and the gated times are rescaled by it to a quiet host's speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced one, in which every child wraps the lefpath
modules (see spans.py) and runs scan tasks serially; it prints the
per-layer metrics and fails a check whenever traced and untraced stdout
differ.  The last line of stdout is the JSON result; the lines before it
describe the run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
# 5x the largest peak RSS any step reaches (189 MB, the partitions scan).
ADDRESS_SPACE_LIMIT = 1 << 30
STEP_TIMEOUT_S = 120.0
# No child is started or left running past this point, so that a run ends
# within 180 s even when a step hangs.
RUN_DEADLINE_S = 165.0
# CPU seconds of one probe.py loop on a quiet host (the fastest tenth of
# samples on a two-vCPU VM, Python 3.11): the scale of the *_ref_s metrics.
REFERENCE_PROBE_S = 0.006


# -- child processes ---------------------------------------------------------------


@dataclass
class Outcome:
    key: str
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    ok: bool = False


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


class Runner:
    """Starts children in the checkout, one at a time, and reaps each."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("LEFPATH_JOBS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.env = env
        self.count = 0
        signal.signal(signal.SIGALRM, _raise_timeout)

    def argv(self, step: workloads.Step, trace_out=None) -> list[str]:
        if step.kind == "cli" and trace_out is None:
            return [sys.executable, "-m", "lefpath.cli", *step.args]
        head = [sys.executable, str(HERE / "child.py")]
        if trace_out is not None:
            head += ["--trace-out", str(trace_out)]
        return head + [step.kind, *step.args]

    def invoke(self, key: str, argv: list[str]) -> Outcome:
        timeout = min(STEP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout < 1.0:
            return Outcome(key, -1, 0.0, 0.0, 0.0, b"", b"skipped: run deadline reached")
        self.count += 1
        out_path = self.work / f"{self.count}.out"
        err_path = self.work / f"{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
                preexec_fn=_limit_address_space,
            )
            usage = None
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Timeout:
                pass
            wall = time.perf_counter() - began
            if usage is None:
                # Timed out: the whole session goes, pool workers included.
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                exit_code = -1
            else:
                exit_code = os.waitstatus_to_exitcode(status)
            proc.returncode = exit_code
        outcome = Outcome(
            key,
            exit_code,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out_path.read_bytes(),
            err_path.read_bytes(),
        )
        out_path.unlink()
        err_path.unlink()
        return outcome


@dataclass
class Pass:
    outcomes: list[Outcome]
    trace_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_mb for o in self.outcomes)


def run_pass(runner: Runner, steps, references, traced: bool = False) -> Pass:
    done = Pass([])
    for step in steps:
        trace_out = None
        if traced:
            trace_out = runner.work / f"trace-{runner.count + 1}.json"
            done.trace_files.append(trace_out)
        outcome = runner.invoke(step.key, runner.argv(step, trace_out))
        outcome.ok = workloads.check(
            references.get(step.key),
            outcome.exit_code,
            outcome.stdout.decode("utf-8", "replace"),
        )
        done.outcomes.append(outcome)
    return done


def measure_setup(runner: Runner) -> list[Outcome]:
    """Cold ``python -m lefpath.cli --help`` runs after one warm-up run that
    fills the bytecode cache; each must exit 0 and print the usage line."""
    argv = [sys.executable, "-m", "lefpath.cli", "--help"]
    runner.invoke("setup", argv)
    samples = []
    for _ in range(SETUP_SAMPLES):
        outcome = runner.invoke("setup", argv)
        outcome.ok = outcome.exit_code == 0 and outcome.stdout.startswith(b"usage: lefpath")
        samples.append(outcome)
    return samples


# -- metrics ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# Defined in README.md: (name, unit).
END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Printed beside them, without a bound: the raw times and the probe.
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"), ("probe_s", "s"))


def typical_pass(passes: list[Pass], attr: str) -> float:
    """Sum over the steps of each step's median across passes: one slow
    step in one pass moves this less than it moves the median pass."""
    steps = range(len(passes[0].outcomes))
    return sum(statistics.median(getattr(p.outcomes[k], attr) for p in passes) for k in steps)


def end_to_end_metrics(passes: list[Pass], setup: list[Outcome], probes: list[float]) -> dict:
    """Metric name -> (value, samples it summarises)."""
    walls = [p.wall_s for p in passes]
    cpus = [p.cpu_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    setups = [o.wall_s for o in setup]
    wall = typical_pass(passes, "wall_s")
    cpu = typical_pass(passes, "cpu_s")
    # The host's speed during the passes, relative to a quiet host.
    slowdown = statistics.fmean(probes) / REFERENCE_PROBE_S
    return {
        "wall_ref_s": (wall / slowdown, walls),
        "cpu_ref_s": (cpu / slowdown, cpus),
        "setup_s": (statistics.median(setups), setups),
        "peak_rss_mb": (statistics.median(rss), rss),
        "wall_s": (wall, walls),
        "cpu_s": (cpu, cpus),
        "probe_s": (statistics.median(probes), probes),
    }


def _self(name):
    return lambda s: s.self_s[name]


def _calls(name):
    return lambda s: s.calls[name]


def _counter(name):
    return lambda s: s.counters[name]


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


# Per-layer metrics of one traced pass: (name, unit, value from a Summary).
LAYER_METRICS = (
    ("exact.rank.self_s", "s", _self("exact.ExactMatrix.rank")),
    ("exact.det.self_s", "s", _self("exact.ExactMatrix.det")),
    ("exact.cells", "count", _counter("exact.cells")),
    ("exact.max_entry_bits", "bits", lambda s: s.maxima.get("exact.max_entry_bits", 0)),
    ("exact.signature.calls", "count", _calls("exact.ExactMatrix.signature")),
    ("exact.signature.self_s", "s", _self("exact.ExactMatrix.signature")),
    ("lattice.path_matrix.calls", "count", _calls("lattice.path_matrix")),
    ("lattice.path_matrix.self_s", "s", _self("lattice.path_matrix")),
    ("lattice.count_paths.calls", "count", _calls("lattice.count_paths")),
    ("lattice.enumerate_systems.self_s", "s", _self("lattice.enumerate_systems")),
    ("lattice.enumerate_paths.calls", "count", _calls("lattice.enumerate_paths")),
    ("lattice.paths_materialised", "count", _counter("lattice.paths_materialised")),
    ("lattice.systems.vertex_disjoint", "count", _counter("lattice.systems.vertex_disjoint")),
    (
        "lattice.systems.doubly_vertex_disjoint",
        "count",
        _counter("lattice.systems.doubly_vertex_disjoint"),
    ),
    (
        "lattice.dvd_share",
        "ratio",
        _ratio(
            _counter("lattice.systems.doubly_vertex_disjoint"),
            _counter("lattice.systems.vertex_disjoint"),
        ),
    ),
    ("lattice.flip.self_s", "s", _self("lattice.flip")),
    ("lattice.involution_phi.self_s", "s", _self("lattice.involution_phi")),
    ("lefschetz.degree_verdict.calls", "count", _calls("lefschetz.degree_verdict")),
    ("lefschetz.degree_verdict.self_s", "s", _self("lefschetz.degree_verdict")),
    (
        "lefschetz.degree_verdict.repeat_ratio",
        "ratio",
        _ratio(_calls("lefschetz.degree_verdict"), lambda s: s.distinct["lefschetz.degree_verdict"]),
    ),
    ("lefschetz.property_report.self_s", "s", _self("lefschetz.property_report")),
    ("lefschetz.signature_crosscheck.self_s", "s", _self("lefschetz.signature_crosscheck")),
    ("algebra.hessian.self_s", "s", _self("algebra.hessian")),
    ("algebra.contract.calls", "count", _calls("algebra.contract")),
    ("algebra.hessian_closed_form.self_s", "s", _self("algebra.hessian_closed_form")),
    ("hilbert.hilbert_m2_closed.calls", "count", _calls("hilbert.hilbert_m2_closed")),
    ("hilbert.hilbert_series.self_s", "s", _self("hilbert.hilbert_series")),
    ("partitions.enumerate_restricted.self_s", "s", _self("partitions.enumerate_restricted")),
    ("partitions.tuples_built", "count", _counter("partitions.tuples_built")),
    ("partitions.partition_gf.self_s", "s", _self("partitions.partition_gf")),
    ("catalan.TruncatedSeries.mul.self_s", "s", _self("catalan.TruncatedSeries.mul")),
    (
        "catalan.TruncatedSeries.reciprocal.self_s",
        "s",
        _self("catalan.TruncatedSeries.reciprocal"),
    ),
    ("cli.main.self_s", "s", _self("cli.main")),
) + tuple(
    (f"{module}.self_s", "s", (lambda m: lambda s: s.module_self_s(m))(module))
    for module in spans.MODULES
)

# Computed from both kinds of pass rather than from one trace.
PASS_METRICS = (
    ("cli.pool.efficiency", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
)

PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + PASS_METRICS


def per_layer_metrics(passes, traced, steps, failed, attempted) -> dict:
    layer = {name: [] for name, _, _ in LAYER_METRICS}
    task_s = []
    for tp in traced:
        summary = spans.summarize(f for f in tp.trace_files if f.is_file())
        for name, _, value in LAYER_METRICS:
            layer[name].append(value(summary))
        task_s.append(summary.total_s["cli.task"])
    values = {name: statistics.median(v) for name, v in layer.items()}
    # Pool efficiency: the scan's serial task time over the worker-seconds
    # the untraced --jobs N scan held.
    pooled = [k for k, step in enumerate(steps) if step.jobs > 1]
    held = sum(
        steps[k].jobs * statistics.median(p.outcomes[k].wall_s for p in passes)
        for k in pooled
    )
    untraced_wall = statistics.median(p.wall_s for p in passes)
    traced_wall = statistics.median(tp.wall_s for tp in traced)
    values["cli.pool.efficiency"] = statistics.median(task_s) / held if held else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["fail_ratio"] = failed / attempted
    return values


# -- the run ------------------------------------------------------------------------


def commit_of(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, root: Path, work: Path) -> tuple[dict, list[Outcome]]:
    """Run the workload; return (metric samples or values, every checked outcome)."""
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    workload = workloads.WORKLOADS[args.workload]
    _, steps = workload.pick(args.seed)
    references = workloads.load_references(args.workload)
    setup = [] if args.trace else measure_setup(runner)
    passes: list[Pass] = []
    traced: list[Pass] = []
    # One probe per CPU: a child runs on either, and neighbours slow each
    # CPU in its own phases.
    cpus = sorted(os.sched_getaffinity(0))
    probe_outs = [work / f"probe-{cpu}.out" for cpu in cpus]
    probe_procs = []
    for cpu, path in zip(cpus, probe_outs):
        with open(path, "wb") as out:
            probe_procs.append(
                subprocess.Popen(
                    [sys.executable, str(HERE / "probe.py"), str(cpu)],
                    stdout=out,
                    stderr=subprocess.DEVNULL,
                )
            )
    try:
        run_passes(args, runner, steps, references, passes, traced)
    finally:
        for probe in probe_procs:
            probe.kill()
            probe.wait()
    # The line being written when a probe was killed may be cut short.
    samples = [float(line) for path in probe_outs for line in path.read_text().split("\n")[:-1]]
    checked = setup + [o for p in passes + traced for o in p.outcomes]
    failed = sum(not o.ok for o in checked)
    if args.trace:
        metrics = per_layer_metrics(passes, traced, steps, failed, len(checked))
    else:
        metrics = end_to_end_metrics(passes, setup, samples)
    return metrics, checked


def run_passes(args, runner: Runner, steps, references, passes: list, traced: list) -> None:
    """Repeat passes until the next one would end after ``--seconds``."""
    began = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        passes.append(run_pass(runner, steps, references))
        if args.trace:
            tp = run_pass(runner, steps, references, traced=True)
            for outcome, plain in zip(tp.outcomes, passes[-1].outcomes):
                if outcome.stdout != plain.stdout:
                    outcome.ok = False
                    outcome.stderr += b"\ntraced stdout differs from untraced stdout"
            traced.append(tp)
        longest = max(longest, time.perf_counter() - start)
        now = time.perf_counter()
        if now - began + longest > args.seconds or time.monotonic() + longest > runner.deadline:
            break


def regenerate_references(root: Path, work: Path) -> int:
    """Rewrite references/<workload>.json from the program at this checkout."""
    runner = Runner(root, work, time.monotonic() + 3600.0)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        refs = {}
        for step in workload.all_steps():
            runner.deadline = time.monotonic() + STEP_TIMEOUT_S
            outcome = runner.invoke(step.key, runner.argv(step))
            output = workloads.parse_output(outcome.stdout.decode())
            passed = (
                isinstance(output, dict)
                and output.get("all_checks_pass", True) is True
                and output.get("verified_hessian_equals_path_matrix", True) is True
            )
            if outcome.exit_code != 0 or not passed:
                print(f"error: {step.key} failed; references not written", file=sys.stderr)
                sys.stderr.write(outcome.stderr.decode(errors="replace"))
                return 1
            print(f"{name}: {step.key} ({outcome.wall_s:.1f} s)", file=sys.stderr)
            refs[step.key] = output
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--regenerate-references",
        action="store_true",
        help="rerun every seeded step and rewrite references/*.json",
    )
    args = parser.parse_args(argv)
    if not args.regenerate_references and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lefpath" / "cli.py").is_file():
        print(
            "error: src/lefpath/cli.py not found; run from the root of a lefpath checkout",
            file=sys.stderr,
        )
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        if args.regenerate_references:
            return regenerate_references(root, Path(tmp))
        metrics, checked = measure(args, root, Path(tmp))

    failed = [o for o in checked if not o.ok]
    for outcome in failed:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-3:]
        print(f"check failed: {outcome.key} (exit {outcome.exit_code})", *tail, sep="\n  ", file=sys.stderr)
    inputs, _ = workloads.WORKLOADS[args.workload].pick(args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_of(root),
    }
    print("# " + json.dumps(meta))
    units, also = (PER_LAYER, ()) if args.trace else (END_TO_END, RAW_TIMES)
    print("\n".join(result_lines(metrics, units, len(failed), len(checked), also)))
    return 0


def result_lines(metrics: dict, units, failed: int, attempted: int, also=()) -> list[str]:
    """One ``# name = value unit`` line per metric, then the JSON result of
    the metrics in ``units`` (those in ``also`` are printed only)."""
    lines = []
    result = {}
    for name, unit in tuple(units) + tuple(also):
        value = metrics[name]
        if isinstance(value, tuple):
            value, samples = value
            q1, med, q3 = quartiles(samples)
            lines.append(
                f"# {name} = {value:.6g} {unit} (samples: median {med:.6g}, "
                f"q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)})"
            )
        else:
            lines.append(f"# {name} = {value:.6g} {unit}")
        if (name, unit) in units:
            result[name] = {"value": value, "unit": unit}
    lines.append(f"# checks failed: {failed}/{attempted}")
    lines.append(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return lines


if __name__ == "__main__":
    sys.exit(main())
