"""Shared oracle helpers: dense matrices built independently of the package."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")

SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_letters(letters: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, qubit 0 leftmost."""
    m = np.array([[1]], dtype=complex)
    for ch in letters:
        m = np.kron(m, SINGLE_QUBIT[ch])
    return m


def dense_pauli(p) -> np.ndarray:
    """Matrix of a PauliString, built from its letters and phase only."""
    return (1j ** p.phase) * kron_letters(
        "".join(p.letter_at(q) for q in range(p.n))
    )


GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]),
    "x": SINGLE_QUBIT["X"],
    "y": SINGLE_QUBIT["Y"],
    "z": SINGLE_QUBIT["Z"],
}


def kron_on(n: int, factors: dict) -> np.ndarray:
    """Tensor product with factors[q] on qubit q, identity elsewhere."""
    m = np.array([[1]], dtype=complex)
    for q in range(n):
        m = np.kron(m, factors.get(q, SINGLE_QUBIT["I"]))
    return m


def dense_gate(gate, n: int) -> np.ndarray:
    """Matrix of a Gate on n qubits, from Kronecker products only."""
    if gate.kind in GATE_1Q:
        return kron_on(n, {gate.qubits[0]: GATE_1Q[gate.kind]})
    a, b = gate.qubits
    target = SINGLE_QUBIT["X" if gate.kind == "cnot" else "Z"]
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    return kron_on(n, {a: p0}) + kron_on(n, {a: p1, b: target})


@pytest.fixture
def rep3():
    from pauliflow.codes import repetition_code

    return repetition_code(3)
