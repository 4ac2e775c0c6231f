"""Tracing from outside: wrap pauliflow's public entry points in place.

In a traced run the benchmark swaps module attributes and `PauliString`
methods for wrappers, and puts the originals back afterwards.  Span
wrappers record (name, start, end, parent, operation id); count wrappers
only count calls.  Everything stays in memory until `dump`.

Spans assume one thread, as the benchmark's calls run: the parent of a
span is the innermost open span.  Counts are exact from any thread,
because `itertools.count` advances atomically.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _ga_counts(tracer, bound, result):
    for history in result.fitness_history:
        tracer.add("layers.ga_generations", len(history) - 1)
        tracer.add(
            "layers.ga_improving",
            sum(1 for a, b in zip(history, history[1:]) if b > a),
        )


def _dp_counts(tracer, bound, result):
    arg = bound.arguments
    m = arg["demand"].states_required
    rounds = arg["max_rounds"] if arg["max_rounds"] is not None else m
    tracer.add("scheduling.dp_cells", (rounds + 1) * (m + 1) * len(list(arg["catalog"])))


def _canonical_counts(tracer, bound, result):
    tracer.add("canonical.trace_len", len(result.clifford_trace))
    tracer.add("canonical.pi8_count", len(result.pi8))


def _rows_not_cached(layering) -> bool:
    # commute_rows caches its matrix; only the first call per layering works.
    return layering._commute_rows is None


# (owner, attribute, hook on the call's bound arguments and result)
SPANNED = [
    ("cli", "main", None),
    ("circuits", "parse_circuit", None),
    ("canonical", "to_rotation_circuit", None),
    ("canonical", "push_cliffords", _canonical_counts),
    ("canonical", "canonical_to_json", None),
    ("canonical", "canonical_from_json", None),
    ("layers", "build_layers", None),
    ("layers.Layering", "commute_rows", None),
    ("layers", "ga_optimize", _ga_counts),
    ("scheduling", "dp_schedule", _dp_counts),
    ("resources", "build_report", None),
    ("oracle", "unitary_of_gates", None),
    ("oracle", "unitary_of_rotations", None),
    ("oracle", "verify_canonical_form", None),
    ("codes", "build_lookup", None),
    ("codes", "monte_carlo", None),
]
COUNTED = [
    ("layers", "mergeable"),
    ("pauli.PauliString", "commutes"),
    ("pauli.PauliString", "__mul__"),
    ("codes", "_run_shard"),
]
SPAN_ONLY_IF = {("layers.Layering", "commute_rows"): _rows_not_cached}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._added: dict[str, int] = {}
        self.op_id: int | None = None
        self.counts: dict[str, int] = {}  # filled in by uninstall()
        self._counters: dict[str, itertools.count] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: int):
        self._added[name] = self._added.get(name, 0) + value

    # -- patching ------------------------------------------------------------

    def install(self, package):
        """Wrap the entry points of `package`, the imported pauliflow package."""
        for owner_path, attr, hook in SPANNED:
            owner = _resolve(package, owner_path)
            name = f"{owner_path}.{attr}"
            only_if = SPAN_ONLY_IF.get((owner_path, attr))
            self._patch(owner, attr, self._span_wrapper(
                getattr(owner, attr), name, hook, only_if))
        for owner_path, attr in COUNTED:
            owner = _resolve(package, owner_path)
            self._patch(owner, attr, self._count_wrapper(
                getattr(owner, attr), f"{owner_path}.{attr}"))

    def uninstall(self):
        """Put the originals back and total the counts."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        # next() returns how often the counter advanced before
        self.counts = {name: next(c) for name, c in self._counters.items()}
        self.counts.update(self._added)

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, original, name, hook, only_if):
        signature = inspect.signature(original) if hook else None

        def wrapper(*args, **kwargs):
            if only_if is not None and not only_if(*args):
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrapper(self, original, name):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total self time, total duration, and span count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_t: dict[str, float] = {}
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_t[name] = self_t.get(name, 0.0) + (end - start) - inner
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        return self_t, total, calls

    def dump(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        payload = dict(header)
        payload["counts"] = self.counts
        payload["spans"] = [dict(zip(fields, record)) for record in self.spans]
        path.write_text(json.dumps(payload) + "\n")


def _resolve(package, dotted: str):
    obj = package
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj
