"""In-memory span tracer for the benchmark's traced runs.

``install`` wraps the public functions and public methods of the eight
lefpath modules at every place they are bound: the defining module, every
module that imported the name, and the class for methods.  Each call records
one span (name, start, end, parent) in flat arrays; a returned generator is
wrapped so that each ``next()`` is a span of its own, named after the
function, while the call that created it is named ``<name>.create``.  The
scalar helpers in ``UNWRAPPED`` are left alone and those in ``COUNTED_ONLY``
are counted without a span.

Nothing under ``src/`` is edited: the wrapping happens in the traced child
process only, after import and before the command runs.  ``Tracer.dump``
writes the spans and counters out as JSON when the child exits, and
``summarize`` turns one or more dumps into per-name totals and self times.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = (
    "exact",
    "lattice",
    "algebra",
    "lefschetz",
    "hilbert",
    "partitions",
    "catalan",
    "cli",
)

# Scalar helpers called up to 1.5 million times per command: any wrapper
# would cost more than the work inside, so they stay unwrapped and their
# time counts toward the caller.
UNWRAPPED = frozenset(
    {
        "exact.as_exact",
        "exact.binomial",
        "hilbert.flo",
        "hilbert.flo_star",
        "hilbert.socle_degree",
        "lattice.reflect",
        "lattice.shifted_offset",
        "lattice.LatticePath.vertices",
    }
)

# Small functions whose call counts are metrics: counted, but without a span.
COUNTED_ONLY = frozenset(
    {"hilbert.hilbert_m2_closed", "lattice.count_paths", "lattice.perm_sign"}
)

MATRIX_KERNELS = ("exact.ExactMatrix.det", "exact.ExactMatrix.rank", "exact.ExactMatrix.signature")


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.distinct: dict[str, set] = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def record_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


class _TracedIterator:
    """Iterator whose every ``next()`` is a span; counts the items yielded."""

    __slots__ = ("_it", "_tracer", "_nid", "_yield_key")

    def __init__(self, it, tracer: Tracer, nid: int, yield_key):
        self._it = it
        self._tracer = tracer
        self._nid = nid
        self._yield_key = yield_key

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.open(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer.close(idx)
        if self._yield_key:
            tracer.counters[self._yield_key] += 1
        return item


# -- counters taken at particular layer boundaries ---------------------------


def _entry_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _matrix_stats(tracer: Tracer, args, kwargs) -> None:
    matrix = args[0]
    tracer.counters["exact.cells"] += matrix.nrows * matrix.ncols
    tracer.record_max(
        "exact.max_entry_bits",
        max(_entry_bits(e) for row in matrix.rows for e in row),
    )


def _verdict_key(tracer: Tracer, args, kwargs) -> None:
    tracer.distinct["lefschetz.degree_verdict"].add((args, tuple(sorted(kwargs.items()))))


BEFORE_CALL = {name: _matrix_stats for name in MATRIX_KERNELS}
BEFORE_CALL["lefschetz.degree_verdict"] = _verdict_key

# Counters fed with len() of a returned list.
RESULT_SIZE = {
    "lattice.enumerate_paths": "lattice.paths_materialised",
    "partitions.enumerate_restricted": "partitions.tuples_built",
}


def _systems_key(args, kwargs) -> str:
    system_filter = kwargs.get(
        "system_filter", args[2] if len(args) > 2 else "vertex_disjoint"
    )
    return f"lattice.systems.{system_filter}"


# Counters of the items a returned generator yields, keyed from the call.
YIELD_KEY = {"lattice.enumerate_systems": _systems_key}


def _span_wrapper(tracer: Tracer, name: str, func):
    nid = tracer.name_id(name)
    create_nid = tracer.name_id(name + ".create")
    before = BEFORE_CALL.get(name)
    size_key = RESULT_SIZE.get(name)
    yield_key = YIELD_KEY.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer.open(nid)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if isinstance(result, types.GeneratorType):
            tracer.name[idx] = create_nid
            key = yield_key(args, kwargs) if yield_key else None
            return _TracedIterator(result, tracer, nid, key)
        if size_key is not None:
            tracer.counters[size_key] += len(result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, func):
    calls = tracer.calls

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return wrapper


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    and public plain method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield f"{short}.{attr}", module, attr, obj
        elif isinstance(obj, type):
            for meth, func in list(vars(obj).items()):
                if not meth.startswith("_") and isinstance(func, types.FunctionType):
                    yield f"{short}.{attr}.{meth}", obj, meth, func


def _serial_map_tasks(tracer: Tracer, original):
    """Run scan tasks in this process, one span each, whatever ``--jobs`` says.

    Pool workers would keep their spans to themselves; running the same
    tasks serially keeps every span in one trace and the output identical.
    """

    @functools.wraps(original)
    def traced_map(func, tasks, jobs):
        return original(_span_wrapper(tracer, "cli.task", func), tasks, 1)

    return traced_map


def install(tracer: Tracer) -> None:
    """Wrap lefpath's public callables in this process."""
    modules = [importlib.import_module(f"lefpath.{name}") for name in MODULES]
    wrapped: dict[int, object] = {}
    for module in modules:
        for name, owner, attr, func in _public_callables(module):
            if name in UNWRAPPED:
                continue
            make = _count_wrapper if name in COUNTED_ONLY else _span_wrapper
            wrapper = make(tracer, name, func)
            wrapped[id(func)] = wrapper
            setattr(owner, attr, wrapper)
    # Rebind every other place the same function objects were imported to.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "lefpath" and not mod_name.startswith("lefpath."):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    cli = sys.modules["lefpath.cli"]
    if hasattr(cli, "_map_tasks"):
        cli._map_tasks = _serial_map_tasks(tracer, cli._map_tasks)


# -- reading spans back ---------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Per-span self time: its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx in range(len(start)):
        lo_bound, hi_bound = start[idx], end[idx]
        covered = 0.0
        reach = lo_bound
        for child in sorted(children.get(idx, ()), key=start.__getitem__):
            lo = max(start[child], reach)
            hi = min(end[child], hi_bound)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(hi_bound - lo_bound - covered)
    return out


class Summary:
    """Totals over the dumps of one or more traced processes."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.distinct: Counter = Counter()

    def add(self, dump: dict) -> None:
        names = dump["names"]
        selfs = self_times(dump["start"], dump["end"], dump["parent"])
        for nid, lo, hi, own in zip(dump["name"], dump["start"], dump["end"], selfs):
            self.self_s[names[nid]] += own
            self.total_s[names[nid]] += hi - lo
        self.calls.update(dump["calls"])
        self.counters.update(dump["counters"])
        self.distinct.update(dump["distinct"])
        for key, value in dump["maxima"].items():
            self.maxima[key] = max(value, self.maxima.get(key, value))

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def summarize(paths) -> Summary:
    summary = Summary()
    for path in paths:
        with open(path) as fh:
            summary.add(json.load(fh))
    return summary
