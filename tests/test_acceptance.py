"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time

import pytest

from pauliflow.canonical import canonicalize
from pauliflow.circuits import RotationCircuit, circuit_metrics
from pauliflow.codes import (
    SUCCESS,
    NoiseModel,
    build_lookup,
    decode,
    monte_carlo,
    repetition_code,
    repetition_failure_rate,
    residual_class,
    rotated_surface_code,
    syndrome,
)
from pauliflow.layers import (
    GAConfig,
    dense_random_rotations,
    ga_optimize,
    greedy_matching,
    random_rotations,
    singleton_layering,
)
from pauliflow.oracle import (
    equivalent_up_to_phase,
    unitary_of_rotations,
    verify_canonical_form,
)
from pauliflow.pauli import PauliString
from pauliflow.resources import (
    CodeParams,
    WorkloadProfile,
    correctable_weight,
    distillation_volume,
    distilled_error,
    physical_qubits,
    recommend_protocol,
)
from pauliflow.scheduling import (
    Demand,
    InfeasibleScheduleError,
    Protocol,
    brute_force,
    dp_schedule,
    greedy_schedule,
)

from test_canonical import random_circuit


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _corpus(count=500, seed=20260809):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_circuit(rng.randint(1, 4), rng.randint(1, 30), rng))
    return out


CORPUS = _corpus()


class TestAcceptance:
    def test_01_canonicalizer_equivalence(self):
        start = time.perf_counter()
        passed = 0
        for gc in CORPUS:
            if verify_canonical_form(gc, canonicalize(gc), tol=1e-9):
                passed += 1
        elapsed = time.perf_counter() - start
        report(
            "01 canonicalizer equivalence",
            passed == len(CORPUS) and elapsed < 60,
            f"{passed}/{len(CORPUS)} circuits equivalent at tol 1e-9 "
            f"in {elapsed:.1f}s (limit 60s)",
        )

    def test_02_t_count_conservation(self):
        exact = sum(
            1 for gc in CORPUS if len(canonicalize(gc).pi8) == gc.t_gate_count()
        )
        report(
            "02 T-count conservation",
            exact == len(CORPUS),
            f"{exact}/{len(CORPUS)} circuits preserve the pi/8 count exactly",
        )

    def test_03_layer_optimizer_soundness(self):
        cfg_base = dict(
            population_size=12, elite_k=2, max_generations=15, stagnation_limit=5
        )
        rng = random.Random(99)
        equivalent = depth_ok = ga_vs_greedy = 0
        total = 200
        for case in range(total):
            n = rng.randint(1, 4)
            rotations = random_rotations(n, rng.randint(2, 40), seed=case)
            layering = singleton_layering(rotations)
            before = unitary_of_rotations(rotations, n)
            result = ga_optimize(layering, GAConfig(seed=case, **cfg_base))
            ordered = [
                result.layering.rotations[i]
                for layer in result.layering.layers
                for i in layer
            ]
            if equivalent_up_to_phase(before, unitary_of_rotations(ordered, n), 1e-9):
                equivalent += 1
            if result.final_t_depth <= layering.t_depth:
                depth_ok += 1
            if result.total_merges >= len(greedy_matching(layering)):
                ga_vs_greedy += 1
        report(
            "03 layer optimizer soundness",
            equivalent == depth_ok == ga_vs_greedy == total,
            f"oracle equivalence {equivalent}/{total}, depth monotone "
            f"{depth_ok}/{total}, GA >= greedy merges {ga_vs_greedy}/{total}",
        )

    def test_04_ga_qualitative_reproduction(self):
        n_qubits, depth, seeds = 50, 128, 50
        cfg_base = dict(
            population_size=24, elite_k=4, max_generations=40, stagnation_limit=8
        )
        start = time.perf_counter()
        hits = 0
        reductions = []
        for seed in range(seeds):
            rotations = dense_random_rotations(n_qubits, depth, seed)
            layering = singleton_layering(rotations)
            result = ga_optimize(layering, GAConfig(seed=seed, **cfg_base))
            greedy_merges = len(greedy_matching(layering))
            reduction = (depth - result.final_t_depth) / depth
            reductions.append(reduction)
            if reduction >= 0.30 and result.total_merges > greedy_merges:
                hits += 1
        elapsed = time.perf_counter() - start
        mean_reduction = sum(reductions) / len(reductions)
        report(
            "04 GA qualitative reproduction",
            hits >= 0.8 * seeds,
            f"{hits}/{seeds} seeds reach >= 30% T-depth reduction and beat "
            f"the greedy matching (mean reduction {mean_reduction:.1%}, "
            f"{elapsed:.1f}s)",
        )

    def _grid(self):
        p15 = Protocol("15-to-1", 11, 11, 1, 15, 35.0, 3)
        p20 = Protocol("20-to-4", 14, 17, 4, 20, 1.0, 2)
        synth = Protocol("7-to-2", 6, 9, 2, 7, 7.0, 2)
        protos = [p15, p20, synth]
        for size in (1, 2, 3):
            for catalog in itertools.combinations(protos, size):
                for m in range(1, 9):
                    for rounds in range(1, 7):
                        yield catalog, Demand(m), rounds

    def test_05_scheduler_exactness(self):
        start = time.perf_counter()
        agree = total = 0
        for catalog, demand, rounds in self._grid():
            total += 1
            try:
                bf = brute_force(catalog, demand, rounds, objective="tiles")
            except InfeasibleScheduleError:
                try:
                    dp_schedule(catalog, demand, max_rounds=rounds)
                except InfeasibleScheduleError:
                    agree += 1
                continue
            dp = dp_schedule(catalog, demand, max_rounds=rounds)
            if dp.tile_time == bf.tile_time:
                agree += 1
        elapsed = time.perf_counter() - start
        report(
            "05 scheduler exactness",
            agree == total and elapsed < 30,
            f"DP matches brute-force tile_time on {agree}/{total} grid "
            f"instances in {elapsed:.1f}s (limit 30s)",
        )

    def test_06_greedy_latency_bound(self):
        overheads = []
        bound_holds = total = 0
        for catalog, demand, rounds in self._grid():
            try:
                bf = brute_force(catalog, demand, rounds, objective="latency")
            except InfeasibleScheduleError:
                continue
            greedy = greedy_schedule(catalog, demand)
            total += 1
            if greedy.expected_latency >= bf.expected_latency - 1e-12:
                bound_holds += 1
            overheads.append(
                greedy.expected_latency / bf.expected_latency - 1.0
            )
        mean_overhead = sum(overheads) / len(overheads)
        report(
            "06 greedy latency bound",
            bound_holds == total,
            f"greedy latency >= optimum on {bound_holds}/{total} instances; "
            f"mean overhead {mean_overhead:.1%}",
        )

    def test_07_resource_numbers(self):
        checks = [
            physical_qubits(CodeParams(27, "standard")) == 1457,
            physical_qubits(CodeParams(31, "ancilla_reuse")) == 1441,
            correctable_weight(3) == 1,
            all(
                distillation_volume("15-to-1", d)["volume"] == 660 * d**3
                for d in (1, 3, 9, 27)
            ),
            distilled_error("15-to-1", 1e-4) == 3.5e-11,
        ]
        report(
            "07 resource numbers",
            all(checks),
            f"qubit counts, correctable weight, block volume, distilled "
            f"error: {sum(checks)}/{len(checks)} exact",
        )

    def test_08_protocol_recommendation(self):
        rows = [
            (WorkloadProfile(10**8, 10**6, 1e-4, 1e-10), "20-to-4", 27.0),
            (WorkloadProfile(10**10, 10**4, 1e-4, 1e-15), "15-to-1 x 15-to-1", 25.9),
            (WorkloadProfile(10**6, 10**6, 1e-4, 1e-10), "15-to-1", 6.3),
        ]
        results = [recommend_protocol(w) for w, _, _ in rows]
        ok = all(
            rec.label == label and rec.cost_per_state_d3 == cost
            for rec, (_, label, cost) in zip(results, rows)
        )
        report(
            "08 protocol recommendation",
            ok,
            "workload rows map to "
            + ", ".join(f"({r.label}, {r.cost_per_state_d3} d^3)" for r in results),
        )

    def test_09_decoder_exhaustive_correctness(self):
        start = time.perf_counter()
        rep3 = repetition_code(3)
        table = {
            s: str(c) for s, c in build_lookup(rep3, 1).table.items()
        }
        table_ok = table == {
            (0, 0): "+III",
            (1, 0): "+XII",
            (1, 1): "+IXI",
            (0, 1): "+IIX",
        }
        surface = rotated_surface_code(3)
        dec3 = build_lookup(surface, 1)
        surface_ok = all(
            residual_class(
                surface, e, decode(dec3, syndrome(surface, e))
            ) == SUCCESS
            for q in range(9)
            for e in (PauliString.single(9, q, ch) for ch in "XYZ")
        )
        rep5 = repetition_code(5)
        dec5 = build_lookup(rep5, 2)
        rep5_ok = True
        for w in (1, 2):
            for support in itertools.combinations(range(5), w):
                e = PauliString(5, sum(1 << q for q in support), 0)
                corr = decode(dec5, syndrome(rep5, e))
                if corr is None or residual_class(rep5, e, corr) != SUCCESS:
                    rep5_ok = False
        elapsed = time.perf_counter() - start
        report(
            "09 decoder exhaustive correctness",
            table_ok and surface_ok and rep5_ok and elapsed < 5,
            f"parity table {'ok' if table_ok else 'WRONG'}, surface-3 "
            f"27/27 {'ok' if surface_ok else 'WRONG'}, rep-5 weight<=2 "
            f"{'ok' if rep5_ok else 'WRONG'} in {elapsed:.2f}s (limit 5s)",
        )

    def test_10_monte_carlo_calibration(self):
        start = time.perf_counter()
        rep3 = repetition_code(3)
        dec = build_lookup(rep3, 1)
        shots = 10**6
        calibrated = []
        worker_stable = []
        for p in (0.05, 0.1):
            noise = NoiseModel("bitflip", p)
            base = monte_carlo(dec, noise, shots, seed=2024, workers=1)
            analytic = repetition_failure_rate(3, p)
            sigma = math.sqrt(analytic * (1 - analytic) / shots)
            calibrated.append(
                abs(base.p_logical_estimate - analytic) <= 3 * sigma
            )
            worker_stable.append(
                all(
                    monte_carlo(
                        dec, noise, shots, seed=2024, workers=w
                    ).counts == base.counts
                    for w in (2, 8)
                )
            )
        elapsed = time.perf_counter() - start
        report(
            "10 Monte Carlo calibration",
            all(calibrated) and all(worker_stable) and elapsed < 30,
            f"estimates within 3 sigma at p=0.05, 0.1: {calibrated}; counts "
            f"worker-invariant: {worker_stable}; {elapsed:.1f}s (limit 30s)",
        )
