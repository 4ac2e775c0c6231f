"""Dense-matrix ground truth for small circuits.

Builds explicit 2^n x 2^n unitaries from gate circuits, rotation lists,
and canonical forms, and checks equivalence up to global phase via the
normalized overlap |tr(U^dag V)| / 2^n = |<U, V>| / 2^n.  Hard guard at
n <= 10; anything larger must be validated structurally instead.

Qubit 0 is the most significant bit of a basis index (the leftmost
Kronecker factor).  No gate or rotation is applied by a matrix product.
A signed Pauli string is a permutation times a phase: P|k> =
d[k] |k ^ xm> with xm the x-bit mask and d[k] = i^(e + #Y) (-1)^|k & zm|
(the symplectic picture of Aaronson and Gottesman, quant-ph/0406196).
So P @ U permutes and scales rows, U @ P columns, and a rotation
exp(-i*phi*P) U = cos(phi) U - i sin(phi) P U.  One-qubit gates are a
2x2 contraction on a reshaped U, CNOT a row permutation and CZ a row
sign.  Each gate or rotation therefore costs O(4^n) rather than the
O(8^n) of a matrix product.

`verify_canonical_form` builds the circuit unitary U, the pi/8 product
W and the trace unitary V once each, so one verification makes a single
2^n x 2^n matrix product, V @ W.  Its tableau check compares g V with
V T(g) for all 2n signed generator images, both sides a permutation
times a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import CanonicalForm
from .circuits import Gate, GateCircuit, PauliRotation
from .pauli import PauliString

MAX_ORACLE_QUBITS = 10

_GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
}


def _check_size(n: int):
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense oracle limited to n <= {MAX_ORACLE_QUBITS}, got {n}")


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices 0..2^n-1 and their popcount parities (cached, read-only)."""
    parity = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        parity = np.concatenate([parity, parity ^ 1])
    idx = np.arange(1 << n)
    idx.flags.writeable = parity.flags.writeable = False
    return idx, parity


def _index_mask(bits: int, n: int) -> int:
    """Basis-index mask of a per-qubit bit vector (qubit q is bit n-1-q)."""
    return int(f"{bits:0{n}b}"[::-1], 2)


def _pauli_columns(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, d) with P = sum_k d[k] |perm[k]><k|; perm is an involution."""
    idx, parity = _basis(p.n)
    zm = _index_mask(p.z, p.n)
    coefficient = 1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)
    d = coefficient * (1 - 2 * parity[idx & zm])
    return idx ^ _index_mask(p.x, p.n), d


def apply_pauli(p: PauliString, u: np.ndarray) -> np.ndarray:
    """P @ u for a signed Pauli string, without forming P."""
    perm, d = _pauli_columns(p)
    return d[perm, None] * u[perm]


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 0 is the leftmost factor)."""
    _check_size(p.n)
    return apply_pauli(p, np.eye(2 ** p.n, dtype=complex))


def apply_gate(gate: Gate, u: np.ndarray) -> np.ndarray:
    """G @ u for one gate of an n-qubit circuit, 2^n = u.shape[0]."""
    n = u.shape[0].bit_length() - 1
    if gate.kind in _GATE_1Q:
        q = gate.qubits[0]
        return (_GATE_1Q[gate.kind] @ u.reshape(1 << q, 2, -1)).reshape(u.shape)
    idx, _ = _basis(n)
    a, b = (n - 1 - q for q in gate.qubits)
    if gate.kind == "cnot":
        return u[idx ^ ((idx >> a & 1) << b)]
    if gate.kind == "cz":
        return (1 - 2 * (idx >> a & idx >> b & 1))[:, None] * u
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def unitary_of_gates(gc: GateCircuit) -> np.ndarray:
    """Product of gate matrices in time order (later gates on the left)."""
    _check_size(gc.n)
    u = np.eye(2 ** gc.n, dtype=complex)
    for g in gc.gates:
        u = apply_gate(g, u)
    return u


def apply_rotation(rot: PauliRotation, u: np.ndarray) -> np.ndarray:
    """exp(-i*phi*P) @ u = cos(phi) u - i sin(phi) P u for involutory Hermitian P."""
    phi = rot.num * math.pi / rot.den
    perm, d = _pauli_columns(rot.axis)
    pu = (-1j * math.sin(phi) * d[perm])[:, None] * u[perm]
    if rot.den == 2:
        # cos(pi/2) rounds to 6e-17, not 0; a run of pi/2 rotations would
        # shrink those terms into subnormals, which are slow to compute with
        return pu
    return math.cos(phi) * u + pu


def unitary_of_rotations(rotations, n: int) -> np.ndarray:
    """Ordered product of rotation matrices (time order, later on the left)."""
    _check_size(n)
    u = np.eye(2 ** n, dtype=complex)
    for rot in rotations:
        if rot.axis.n != n:
            raise ValueError("rotation axis length does not match n")
        u = apply_rotation(rot, u)
    return u


def overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U^dag V)| / dim: 1 iff U and V agree up to global phase."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.vdot(u, v)) / u.shape[0])


def equivalent_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff |tr(U^dag V)| / dim >= 1 - tol."""
    return overlap(u, v) >= 1 - tol


@dataclass(frozen=True)
class Verdict:
    """Outcome of `verify_canonical_form`; truthy iff the form passed."""

    fidelity: float
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_canonical_form(
    gc: GateCircuit, cf: CanonicalForm, tol: float = 1e-9
) -> Verdict:
    """Check a canonical form against the original circuit.

    Verifies (1) the pi/8 prefix followed by the Clifford trace matches
    the original unitary up to global phase, and (2) each tableau entry
    T(g) equals V^dag g V for its generator g and the trace unitary V,
    including sign, checked as g V == V T(g).  The fidelity is the
    overlap of the original and rebuilt unitaries.
    """
    if gc.n != cf.n:
        raise ValueError("qubit count mismatch between circuit and canonical form")
    _check_size(gc.n)
    original = unitary_of_gates(gc)
    w = unitary_of_rotations(cf.pi8, cf.n)
    v = unitary_of_rotations(cf.clifford_trace, cf.n)
    fidelity = overlap(original, v @ w)
    if fidelity < 1 - tol:
        return Verdict(fidelity, False)
    atol = max(100 * tol, 1e-10)
    t = cf.tableau
    # g V and V T(g) go into two buffers reused across the 2n generators;
    # the test is np.allclose's |a - b| <= atol + 1e-5 |b|, elementwise
    gv, vt = np.empty_like(v), np.empty_like(v)
    gap, limit = np.empty(v.shape), np.empty(v.shape)
    for q in range(cf.n):
        for letter, image in (("X", t.x_images[q]), ("Z", t.z_images[q])):
            perm, d = _pauli_columns(PauliString.single(cf.n, q, letter))
            np.take(v, perm, axis=0, out=gv)
            gv *= d[perm, None]
            perm, d = _pauli_columns(image)
            np.take(v, perm, axis=1, out=vt)
            vt *= d
            np.abs(vt, out=limit)
            limit *= 1e-5
            limit += atol
            np.subtract(gv, vt, out=gv)
            np.abs(gv, out=gap)
            if not (gap <= limit).all():
                return Verdict(fidelity, False)
    return Verdict(fidelity, True)
