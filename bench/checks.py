"""Output checks that do not trust pauliflow.

Pauli labels are parsed with this file's own symplectic arithmetic, so a
defect in pauliflow's Pauli algebra cannot hide a defect in its output.
Every function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict

_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_VERDICT = re.compile(r"fidelity=(\S+) (PASS|FAIL)\s*$")


def symplectic(label: str) -> tuple[int, int]:
    """(x bits, z bits) of a label such as "+XZI"; qubit 0 is leftmost."""
    body = label.lstrip("+-")
    x = z = 0
    for q, letter in enumerate(body):
        xb, zb = _BITS[letter]
        x |= xb << q
        z |= zb << q
    return x, z


def anticommute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() % 2 == 1


def count_t_gates(circuit_text: str) -> int:
    return sum(
        1 for line in circuit_text.splitlines() if line.split()[:1] in (["t"], ["tdg"])
    )


def _key(rot: dict) -> tuple[str, int, int]:
    return (rot["axis"], rot["num"], rot["den"])


def check_compile(
    circuit_text: str, canonical: dict, layered: dict, schedule: dict,
    estimate: dict,
) -> list[str]:
    """The four compile-deep invariants plus consistency of the later steps."""
    problems: list[str] = []
    pi8 = [_key(r) for r in canonical["pi8"]]
    layers = [[_key(r) for r in layer] for layer in layered["layers"]]
    t_gates = count_t_gates(circuit_text)
    if len(pi8) != t_gates or canonical["metrics"]["t_count"] != t_gates:
        problems.append(
            f"T-count {len(pi8)} (reported {canonical['metrics']['t_count']}) "
            f"!= {t_gates} t/tdg gates in the circuit"
        )
    if Counter(pi8) != Counter(r for layer in layers for r in layer):
        problems.append("layered rotations differ from the canonical pi/8 list")
        return problems
    axes = {key: symplectic(key[0]) for key in set(pi8)}
    for pos, layer in enumerate(layers):
        for a in range(len(layer)):
            for b in range(a + 1, len(layer)):
                if anticommute(axes[layer[a]], axes[layer[b]]):
                    problems.append(f"layer {pos} holds anticommuting rotations")
                    return problems
    # Equal rotations are interchangeable; give the k-th canonical copy the
    # k-th earliest layer, which is valid whenever any assignment is.
    free: dict[tuple, list[int]] = defaultdict(list)
    for pos, layer in enumerate(layers):
        for key in layer:
            free[key].append(pos)
    for slots in free.values():
        slots.reverse()
    layer_of = [free[key].pop() for key in pi8]
    for j in range(len(pi8)):
        for i in range(j):
            if layer_of[i] >= layer_of[j] and anticommute(axes[pi8[i]], axes[pi8[j]]):
                problems.append(
                    f"anticommuting rotations {i} < {j} sit in layers "
                    f"{layer_of[i]} >= {layer_of[j]}"
                )
                return problems
    if layered["report"]["final_t_depth"] != len(layers):
        problems.append("reported T-depth differs from the number of layers")
    if not schedule["feasible"] or schedule["metrics"]["states_delivered"] < t_gates:
        problems.append("distillation schedule does not meet the T-count")
    if estimate["physical_qubits"] <= 0:
        problems.append("estimate reports no physical qubits")
    return problems


def check_verdict(exit_code: int, stdout: str, expect_pass: bool) -> list[str]:
    match = _VERDICT.search(stdout)
    verdict = match.group(2) if match else None
    want = ("PASS", 0) if expect_pass else ("FAIL", 1)
    if (verdict, exit_code) != want:
        return [f"verify gave {verdict} with exit {exit_code}, expected {want}"]
    return []


def wilson(failures: int, trials: int, z: float) -> tuple[float, float]:
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# A 95% interval misses a correct estimate once in twenty calls; at z = 5
# a correct program is flagged about once in two million calls.
CHECK_Z = 5.0


def check_decode(result: dict, shots: int, reference_p: float) -> list[str]:
    problems: list[str] = []
    counts = result["counts"]
    if sum(counts.values()) != shots or result["shots"] != shots:
        problems.append(f"counts sum to {sum(counts.values())}, not {shots} shots")
        return problems
    failures = counts["logical_error"] + counts["detected_uncorrectable"]
    if result["p_logical_estimate"] != failures / shots:
        problems.append("p_logical_estimate is not failures / shots")
    lo95, hi95 = wilson(failures, shots, 1.959963984540054)
    got = result["wilson_95_interval"]
    if not (math.isclose(got[0], lo95, rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(got[1], hi95, rel_tol=1e-9, abs_tol=1e-15)):
        problems.append(f"wilson_95_interval {got} != recomputed {[lo95, hi95]}")
    lo, hi = wilson(failures, shots, CHECK_Z)
    if not lo <= reference_p <= hi:
        problems.append(
            f"reference p_logical {reference_p:.4e} outside [{lo:.4e}, {hi:.4e}]"
        )
    return problems
