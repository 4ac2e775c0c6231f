#!/usr/bin/env python3
"""Seeded end-to-end benchmark for pauliflow.

Run from the repository root:

    python3 bench/run.py --workload compile-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The benchmark drives the command line in-process, through
`pauliflow.cli.main(argv)`, on files it generates from --seed, and
checks every output.  It prints one JSON object as its last line:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics, taken from a run in which pauliflow's entry
points are wrapped by tracer.py.  bench/README.md gives the reasoning.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"

# One BLAS thread: the oracle's 128 x 128 matrices gain little from more,
# and on a small machine a second BLAS thread competes for the cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # set-ups timed, each in a fresh interpreter
# Each set-up is paired with a fresh interpreter that only imports numpy,
# timed just before it.  setup_s is NOMINAL_REFERENCE_S, that reference's
# time on the host the bounds were set on (a 2-vCPU VM, Python 3.11,
# numpy 2.4), times the median set-up / reference ratio: seconds on that
# host.
SETUP_REFERENCE = ("-c", "import numpy")
NOMINAL_REFERENCE_S = 0.2
PYTHON_REFERENCE_LOOPS = 30_000
NUMPY_REFERENCE_ROWS = 16_384
DENSE_REFERENCE_ROTATIONS = 36
GATE_KINDS = ("h", "s", "sdg", "t", "tdg", "x", "y", "z", "cnot", "cz")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class StepError(Exception):
    """A pipeline step exited with an unexpected code."""


# -- driving the command line ---------------------------------------------------


def run_cli(package, *argv) -> tuple[int, str]:
    """Call `pauliflow <argv>` in-process; return its exit code and output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            code = package.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def step(package, *argv):
    code, text = run_cli(package, *argv)
    if code != 0:
        raise StepError(f"pauliflow {argv[0]} exited {code}: {text.strip()[-300:]}")


def random_circuit(rng: random.Random, n: int, gates: int) -> str:
    """Equal numbers of each of the 10 gate kinds in random order, on
    uniformly drawn qubits.

    Fixing the mix (20% T/Tdg) rather than drawing each gate's kind keeps
    the T-count, and with it the DP table and peak memory, the same for
    every seed, so seeds differ in structure only.
    """
    if gates % len(GATE_KINDS):
        raise ValueError(f"gate count must be a multiple of {len(GATE_KINDS)}")
    kinds = list(GATE_KINDS) * (gates // len(GATE_KINDS))
    rng.shuffle(kinds)
    lines = [f"qubits {n}"]
    for kind in kinds:
        qubits = rng.sample(range(n), 2) if kind in ("cnot", "cz") else [rng.randrange(n)]
        lines.append(" ".join([kind, *map(str, qubits)]))
    return "\n".join(lines) + "\n"


@dataclass
class Case:
    name: str
    path: Path | None = None
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float  # the timed operation behind op_ref
    cost: int  # the workload's output-cost figure for this input
    files: list[Path]  # outputs compared byte for byte across runs
    data: dict  # what check() and named() need


# -- host-speed reference -----------------------------------------------------
#
# Each workload times a fixed loop before and after every operation; the
# loop shares no code with pauliflow but does the same kind of work, so
# a change of host speed moves both sides of op_ref while a change to
# pauliflow moves only the operation.


@dataclass(frozen=True)
class _Pair:
    x: int
    z: int


def python_reference():
    """Make and drop small objects and do bit arithmetic, as the compile
    path does."""
    acc = _Pair(0, 0)
    for i in range(PYTHON_REFERENCE_LOOPS):
        item = _Pair(i & 0xFFFF, i * 7 & 0xFFFF)
        acc = _Pair(acc.x ^ item.x, acc.z ^ (item.z & acc.x).bit_count())


def numpy_reference():
    """Sample errors, take syndromes and group them, as a decode shard does."""
    import numpy as np  # imported by pauliflow before any operation runs

    rng = np.random.default_rng(0)
    u = rng.random((NUMPY_REFERENCE_ROWS, 25))
    errors = np.zeros((NUMPY_REFERENCE_ROWS, 50), dtype=np.uint8)
    errors[:, 25:] = u < 0.0067
    errors[:, :25] = (u >= 0.0033) & (u < 0.01)
    parity = rng.integers(0, 2, size=(24, 50), dtype=np.int64)
    syndromes = (errors.astype(np.int64) @ parity.T) % 2
    np.unique(syndromes @ (1 << np.arange(24, dtype=np.int64)), return_inverse=True)


def dense_reference():
    """Build 7-qubit Pauli matrices by Kronecker products and multiply
    128 x 128 complex matrices, as the dense oracle does."""
    import numpy as np

    letters = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex))
    u = np.eye(128, dtype=complex)
    for k in range(DENSE_REFERENCE_ROTATIONS):
        m = np.array([[1]], dtype=complex)
        for q in range(7):
            m = np.kron(m, letters[k >> q & 1])
        u = (0.92 * np.eye(128, dtype=complex) - 0.38j * m) @ u


def time_reference(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def write_case(directory: Path, name: str, text: str, **params) -> Case:
    path = directory / f"{name}.qc"
    path.write_text(text)
    return Case(name, path, params)


# -- workloads ------------------------------------------------------------------


class CompileDeep:
    name = "compile-deep"
    reference = staticmethod(python_reference)
    N, GATES, CASES = 16, 2000, 8

    def cases(self, rng, directory):
        return [write_case(directory, f"c{i}", random_circuit(rng, self.N, self.GATES))
                for i in range(self.CASES)]

    def warmup(self, rng, directory):
        return write_case(directory, "warmup", random_circuit(rng, self.N, 200))

    def run(self, package, case, directory, between=None) -> Outcome:
        canon, layered, sched, est = (
            directory / f"{case.name}.{stage}.json"
            for stage in ("canonical", "layered", "schedule", "estimate")
        )
        seconds = 0.0

        def timed_step(*argv):
            nonlocal seconds
            if seconds and between:
                between()
            start = time.perf_counter()
            step(package, *argv)
            seconds += time.perf_counter() - start

        timed_step("transpile", case.path, "-o", canon)
        t_count = json.loads(canon.read_text())["metrics"]["t_count"]
        timed_step("optimize", canon, "-o", layered)
        t_depth = json.loads(layered.read_text())["report"]["final_t_depth"]
        # the default round bound (-L 6) cannot deliver hundreds of states
        timed_step("schedule", "--algo", "dp", "-M", t_count, "-L", t_count,
                   "-o", sched)
        timed_step("estimate", "--distance", 27, "--p", "1e-4",
                   "--t-count", t_count, "--t-depth", t_depth, "-o", est)
        return Outcome(seconds, t_depth, [canon, layered, sched, est],
                       {"t_count": t_count})

    def check(self, case, outcome):
        docs = [json.loads(p.read_text()) for p in outcome.files]
        return checks.check_compile(case.path.read_text(), *docs)

    def named(self, op_s, metrics, first):
        return {"compile_s": (op_s, "s"),
                "t_depth": (metrics["output_cost"], "count"),
                "t_count": (sum(o.data["t_count"] for o in first), "count")}


class VerifySmall:
    name = "verify-small"
    reference = staticmethod(dense_reference)
    N, GATES, CASES = 7, 100, 16

    def _case(self, rng, directory, name, gates, negate):
        text = random_circuit(rng, self.N, gates)
        return write_case(directory, name, text, negate=negate, pick=rng.random())

    def cases(self, rng, directory):
        # every fourth case gets one pi/8 rotation negated: known verdict FAIL
        return [self._case(rng, directory, f"v{i}", self.GATES, i % 4 == 3)
                for i in range(self.CASES)]

    def warmup(self, rng, directory):
        return self._case(rng, directory, "warmup", 30, False)

    def run(self, package, case, directory, between=None) -> Outcome:
        canon = directory / f"{case.name}.canonical.json"
        step(package, "transpile", case.path, "-o", canon)
        doc = json.loads(canon.read_text())
        pi8_count = len(doc["pi8"])
        checked = canon
        if case.params["negate"]:
            rot = doc["pi8"][int(case.params["pick"] * pi8_count)]
            rot["num"] = -rot["num"]
            checked = directory / f"{case.name}.negated.json"
            checked.write_text(json.dumps(doc, indent=2) + "\n")
        start = time.perf_counter()
        code, text = run_cli(package, "verify", case.path, checked)
        seconds = time.perf_counter() - start
        verdict = directory / f"{case.name}.verdict.txt"
        verdict.write_text(f"exit {code}\n{text}")
        rotations = pi8_count + len(doc["clifford_trace"])
        return Outcome(seconds, rotations, [canon, verdict],
                       {"code": code, "text": text, "pi8_count": pi8_count})

    def check(self, case, outcome):
        problems = checks.check_verdict(
            outcome.data["code"], outcome.data["text"], not case.params["negate"])
        t_gates = checks.count_t_gates(case.path.read_text())
        if outcome.data["pi8_count"] != t_gates:
            problems.append(f"{outcome.data['pi8_count']} pi/8 rotations for "
                            f"{t_gates} t/tdg gates")
        return problems

    def named(self, op_s, metrics, first):
        return {"verify_s": (op_s, "s"),
                "canonical_rotations": (metrics["output_cost"], "count")}


class DecodeSurface:
    name = "decode-surface"
    reference = staticmethod(numpy_reference)
    SHOTS, CASES = 2**20, 4
    ARGS = ("--code", "surface5", "--noise", "depolarizing", "--p", "0.01")

    def __init__(self):
        ref = json.loads((Path(__file__).parent / "reference.json").read_text())
        if ref["args"] != list(self.ARGS):
            raise BenchError("bench/reference.json was recorded for other arguments")
        self.reference_p = ref["p_logical"]

    def cases(self, rng, directory):
        return [Case(f"d{i}", None, {"seed": rng.randrange(2**31)})
                for i in range(self.CASES)]

    def warmup(self, rng, directory):
        return Case("warmup", None, {"seed": rng.randrange(2**31), "shots": 65536})

    def run(self, package, case, directory, between=None) -> Outcome:
        out = directory / f"{case.name}.decode.json"
        shots = case.params.get("shots", self.SHOTS)
        start = time.perf_counter()
        step(package, "decode", *self.ARGS, "--shots", shots,
             "--seed", case.params["seed"], "-o", out)
        seconds = time.perf_counter() - start
        result = json.loads(out.read_text())
        counts = result["counts"]
        failures = counts["logical_error"] + counts["detected_uncorrectable"]
        return Outcome(seconds, failures, [out],
                       {"result": result, "shots": shots})

    def check(self, case, outcome):
        return checks.check_decode(
            outcome.data["result"], outcome.data["shots"], self.reference_p)

    def named(self, op_s, metrics, first):
        return {"decode_call_s": (op_s, "s"),
                "decode_shots_per_s": (self.SHOTS / op_s, "1/s"),
                "logical_failures": (metrics["output_cost"], "count")}


WORKLOADS = {w.name: w for w in (CompileDeep, VerifySmall, DecodeSurface)}

# Per-layer metrics: which end-to-end metric each should move, and where.
REASONS = {
    "circuits.parse_s": "moves op_ref on compile-deep (share about 0)",
    "canonical.push_s": "moves op_ref on compile-deep, not on verify-small",
    "canonical.json_s": "moves op_ref on compile-deep, not on verify-small",
    "canonical.trace_len": "moves op_ref on compile-deep, not on verify-small",
    "canonical.pi8_count": "moves op_ref on compile-deep, not on verify-small",
    "layers.asap_s": "moves op_ref and output_cost on compile-deep",
    "layers.commute_s": "moves op_ref and output_cost on compile-deep",
    "layers.ga_s": "moves op_ref and output_cost on compile-deep",
    "layers.ga_generations": "moves op_ref and output_cost on compile-deep",
    "layers.ga_improving_ratio": "moves op_ref and output_cost on compile-deep",
    "layers.mergeable_calls": "moves op_ref and output_cost on compile-deep",
    "scheduling.dp_s": "moves op_ref on compile-deep",
    "scheduling.dp_cells": "moves op_ref on compile-deep",
    "resources.report_s": "moves op_ref on compile-deep (share about 0)",
    "oracle.unitary_s": "moves op_ref on verify-small",
    "oracle.unitary_builds": "moves op_ref on verify-small",
    "oracle.tableau_check_s": "moves op_ref on verify-small",
    "codes.lookup_s": "moves op_ref on decode-surface",
    "codes.mc_s": "moves op_ref on decode-surface",
    "codes.shards": "moves op_ref on decode-surface",
    "pauli.commutes_calls": "moves op_ref on compile-deep; op_ref on decode-surface",
    "pauli.mul_calls": "moves op_ref on compile-deep; op_ref on decode-surface",
    "cli.self_s": "moves op_ref on compile-deep and verify-small",
    "trace.pipeline_s": "traced wall time of one operation",
    "trace.unattributed_s": "part of trace.pipeline_s in no layer or cli span",
    "trace.overhead_share": "traced over untraced op_ref, less 1, median over inputs",
    "trace.ops": "traced operations the per-op figures average over",
}

SELF_TIME = {
    "circuits.parse_s": ("circuits.parse_circuit",),
    "canonical.push_s": ("canonical.to_rotation_circuit", "canonical.push_cliffords"),
    "canonical.json_s": ("canonical.canonical_to_json", "canonical.canonical_from_json"),
    "layers.asap_s": ("layers.build_layers",),
    "layers.commute_s": ("layers.Layering.commute_rows",),
    "layers.ga_s": ("layers.ga_optimize",),
    "scheduling.dp_s": ("scheduling.dp_schedule",),
    "resources.report_s": ("resources.build_report",),
    "oracle.unitary_s": ("oracle.unitary_of_gates", "oracle.unitary_of_rotations"),
    "oracle.tableau_check_s": ("oracle.verify_canonical_form",),
    "codes.lookup_s": ("codes.build_lookup",),
    "codes.mc_s": ("codes.monte_carlo",),
    "cli.self_s": ("cli.main",),
}

COUNTS = {
    "canonical.trace_len": "canonical.trace_len",
    "canonical.pi8_count": "canonical.pi8_count",
    "layers.ga_generations": "layers.ga_generations",
    "layers.mergeable_calls": "layers.mergeable",
    "scheduling.dp_cells": "scheduling.dp_cells",
    "codes.shards": "codes._run_shard",
    "pauli.commutes_calls": "pauli.PauliString.commutes",
    "pauli.mul_calls": "pauli.PauliString.__mul__",
}


# -- set-up -----------------------------------------------------------------------


def import_pauliflow():
    """Import pauliflow afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pauliflow"]:
        del sys.modules[name]
    try:
        package = importlib.import_module("pauliflow")
        importlib.import_module("pauliflow.cli")
        importlib.import_module("pauliflow.oracle")  # verify imports it lazily
    except ImportError as exc:
        raise BenchError(f"cannot import pauliflow from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise BenchError(f"pauliflow was imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload, seed: int, workdir: Path):
    """Import, generate and write the inputs, and run one warm-up operation."""
    package = import_pauliflow()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload.name}/{seed}")
    cases = workload.cases(rng, workdir)
    warm = workload.warmup(rng, workdir)
    try:  # unchecked: the measured operations count any failure
        workload.run(package, warm, workdir)
    except StepError as exc:
        print(f"warm-up: {exc}", file=sys.stderr)
    return package, cases


def time_process(*argv) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{argv[-1]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return time.perf_counter() - start


def timed_setups(workload, seed: int) -> tuple[list[float], list[float]]:
    """Set up SETUP_REPEATS times, each in a fresh interpreter, so imports
    (numpy's too) are paid every time, as by a user.  Return each set-up's
    wall time and that of the reference interpreter run just before it.

    The host's speed drifts by a third over minutes; a process that starts
    Python and imports numpy slows with it, so the ratio holds steady
    where a loop inside this process does not."""
    walls, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(time_process(*SETUP_REFERENCE))
        walls.append(time_process(__file__, "--workload", workload.name, "--seed",
                                  str(seed), "--seconds", "0", "--setup-only"))
    return walls, references


def git_commit() -> str:
    """HEAD of the checkout, with "+dirty" if the working tree differs."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "--no-optional-locks",
                                 "status", "--porcelain"],
                                capture_output=True, text=True, env=env, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def provenance(workload, why: str, seed: int, cases, package) -> dict:
    return {
        "workload": workload.name,
        "why": why,
        "seed": seed,
        "commit": git_commit(),
        "pauliflow": getattr(package, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "inputs_sha256": {
            c.name: hashlib.sha256(
                c.path.read_bytes() if c.path else json.dumps(c.params).encode()
            ).hexdigest()
            for c in cases
        },
    }


# -- measuring --------------------------------------------------------------------


@dataclass
class Record:
    case: str
    outcome: Outcome | None
    problems: list[str]
    reference_s: float  # the workload's reference loop around it, mean


def measure(workload, package, cases, workdir, seconds, min_ops, digests,
            tracer: Tracer | None = None) -> list[Record]:
    """Run the cases round-robin until `seconds` pass and `min_ops` are done.

    The reference loop runs before and after each operation and, untraced,
    between the steps of a multi-step one: a 4 s compile spans several
    swings of host speed that one loop on each side misses."""
    records: list[Record] = []
    start = time.perf_counter()
    reference = time_reference(workload.reference)
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        case = cases[len(records) % len(cases)]
        outcome = None
        inner: list[float] = []
        try:
            if tracer is not None:
                tracer.op_id = len(records)
            with tracer.span("bench.op") if tracer else nullcontext():
                outcome = workload.run(
                    package, case, workdir,
                    None if tracer else lambda: inner.append(
                        time_reference(workload.reference)))
            problems = workload.check(case, outcome)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        if outcome is not None:
            digest = hashlib.sha256()
            for path in outcome.files:
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            if digests.setdefault(case.name, digest.hexdigest()) != digest.hexdigest():
                problems.append("output differs from an earlier run of the same input")
        if problems:
            print(f"FAILED {workload.name} {case.name}: {problems[0]}", file=sys.stderr)
        before, reference = reference, time_reference(workload.reference)
        records.append(Record(case.name, outcome if not problems else None, problems,
                              statistics.mean([before, *inner, reference])))
    return records


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, cases, records, setups) -> tuple[dict, dict]:
    """BENCHMARK.json's metrics, and the figures users know by name
    (compile_s, t_depth, decode_shots_per_s, ...) as value and unit."""
    done = [r for r in records if r.outcome is not None]
    first: dict[str, Outcome] = {}
    for r in done:
        first.setdefault(r.case, r.outcome)
    failed = sum(1 for r in records if r.problems)
    walls, references = setups
    metrics = {
        "setup_s": NOMINAL_REFERENCE_S * statistics.median(
            w / ref for w, ref in zip(walls, references)),
        "op_ref": median_or_zero([r.outcome.seconds / r.reference_s for r in done]),
        # over every input; undefined (null) if one never gave a correct output
        "output_cost": (sum(o.cost for o in first.values())
                        if len(first) == len(cases) else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (len(records) - failed) / len(records),
    }
    named = {"setup_s": (metrics["setup_s"], "s"),
             "setup_wall_s": (statistics.median(walls), "s"),
             "setup_reference_s": (statistics.median(references), "s")}
    if metrics["output_cost"] is not None:
        op_s = statistics.median(r.outcome.seconds for r in done)
        named.update(workload.named(op_s, metrics, first.values()))
    named["reference_loop_s"] = (
        statistics.median(r.reference_s for r in records), "s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    named["failure_ratio"] = (failed / len(records), "ratio")
    return metrics, {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def tracing_overhead(base: list[Record], traced: list[Record]) -> float:
    """Median over inputs run in both phases of traced / untraced op_ref, less 1."""
    def by_case(records):
        ratios: dict[str, list[float]] = {}
        for r in records:
            if r.outcome is not None:
                ratios.setdefault(r.case, []).append(r.outcome.seconds / r.reference_s)
        return {case: statistics.median(v) for case, v in ratios.items()}

    untraced = by_case(base)
    shares = [ratio / untraced[case] - 1 for case, ratio in by_case(traced).items()
              if case in untraced]
    return median_or_zero(shares)


def per_layer(tracer: Tracer, base: list[Record], traced: list[Record]) -> dict:
    self_t, total, calls = tracer.self_times()
    counts = tracer.counts
    ops = len(traced)
    metrics = {
        name: sum(self_t.get(span, 0.0) for span in spans) / ops
        for name, spans in SELF_TIME.items()
    }
    metrics.update({name: counts.get(key, 0) / ops for name, key in COUNTS.items()})
    generations = counts.get("layers.ga_generations", 0)
    metrics["layers.ga_improving_ratio"] = (
        counts.get("layers.ga_improving", 0) / generations if generations else 0.0)
    metrics["oracle.unitary_builds"] = (
        calls.get("oracle.unitary_of_gates", 0)
        + calls.get("oracle.unitary_of_rotations", 0)) / ops
    metrics["trace.pipeline_s"] = total.get("bench.op", 0.0) / ops
    metrics["trace.unattributed_s"] = self_t.get("bench.op", 0.0) / ops
    metrics["trace.overhead_share"] = tracing_overhead(base, traced)
    metrics["trace.ops"] = ops
    return metrics


# -- entry point ------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, names in (("end_to_end", {"setup_s", "op_ref", "output_cost",
                                           "peak_rss_mb", "success_ratio"}),
                           ("per_layer", set(REASONS))):
        if {m["name"] for m in spec[section]} != names:
            raise BenchError(f"BENCHMARK.json {section} does not match bench/run.py")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match bench/run.py")
    return spec


def run_one(args, spec) -> dict | None:
    workload = WORKLOADS[args.workload]()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        package, cases = set_up(workload, args.seed, workdir)
        if args.setup_only:
            return None
        workload.reference()  # warm the loop op_ref divides by
        print("provenance: " + json.dumps(provenance(workload, why, args.seed,
                                                     cases, package)))
        digests: dict[str, str] = {}
        if not args.trace:
            section = "end_to_end"
            units = {m["name"]: m["unit"] for m in spec[section]}
            setups = timed_setups(workload, args.seed)
            records = measure(workload, package, cases, workdir, args.seconds,
                              len(cases), digests)
            metrics, named = end_to_end(workload, cases, records, setups)
            times = sorted(r.outcome.seconds for r in records if r.outcome)
            quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
            print(f"{workload.name}: {len(records)} operations; seconds per operation "
                  f"p25 {quartiles[0]:.4g}, median {quartiles[1]:.4g}, "
                  f"p75 {quartiles[2]:.4g}, max {max(times, default=0):.4g}")
            for name, m in named.items():
                print(f"  {name:22} {m['value']:14.6g} {m['unit']}")
            if metrics["output_cost"] is None:
                print("  output_cost            undefined: an input never gave a correct output")
            print("named_metrics: " + json.dumps(named))
        else:
            section = "per_layer"
            units = {m["name"]: m["unit"] for m in spec[section]}
            base = measure(workload, package, cases, workdir, args.seconds / 2, 1,
                           digests)
            tracer = Tracer()
            tracer.install(package)
            try:
                traced = measure(workload, package, cases, workdir,
                                 args.seconds / 2, 1, digests, tracer)
            finally:
                tracer.uninstall()
            trace_file = TRACES / f"trace-{workload.name}-seed{args.seed}.json"
            tracer.dump(trace_file, {"workload": workload.name, "seed": args.seed})
            records = base + traced
            metrics = per_layer(tracer, base, traced)
            print(f"{workload.name}: spans in {trace_file.relative_to(ROOT)}; "
                  "figures are per traced operation")
            metrics = {name: metrics[name] for name in units}  # BENCHMARK.json order
            for name, value in metrics.items():
                print(f"  {name:26} {value:12.6g} {units[name]:9} {REASONS[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(1 for r in records if r.problems)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        named = json.loads(next(l for l in lines if l.startswith("named_metrics: "))
                           .split(": ", 1)[1])
        result["correct"] &= child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for metric, value in named.items():
            result["metrics"][f"{name}.{metric}"] = value
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (times set-up in a fresh interpreter)")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    for var in BLAS_ENV:  # before pauliflow imports numpy
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        spec = load_spec()
        result = run_all(args) if args.workload == "all" else run_one(args, spec)
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
