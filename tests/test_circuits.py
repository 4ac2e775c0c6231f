"""Circuit IR, parser round-trips, the rotation dictionary, and metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliflow.circuits import (
    CircuitParseError,
    Gate,
    GateCircuit,
    PauliRotation,
    RotationCircuit,
    circuit_metrics,
    gate_to_rotations,
    parse_circuit,
    render_circuit,
)
from pauliflow.pauli import PauliString

from conftest import SINGLE_QUBIT, dense_pauli, kron_letters


def rotation_unitary(rot):
    phi = rot.num * np.pi / rot.den
    p = dense_pauli(rot.axis)
    return np.cos(phi) * np.eye(p.shape[0]) - 1j * np.sin(phi) * p


GATE_MATRICES = {
    ("h", (0,)): kron_letters("X") * 0 + np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    ("s", (0,)): np.diag([1, 1j]),
    ("sdg", (0,)): np.diag([1, -1j]),
    ("t", (0,)): np.diag([1, np.exp(1j * np.pi / 4)]),
    ("tdg", (0,)): np.diag([1, np.exp(-1j * np.pi / 4)]),
    ("x", (0,)): SINGLE_QUBIT["X"],
    ("y", (0,)): SINGLE_QUBIT["Y"],
    ("z", (0,)): SINGLE_QUBIT["Z"],
    ("cnot", (0, 1)): np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    ("cnot", (1, 0)): np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    ("cz", (0, 1)): np.diag([1, 1, 1, -1]).astype(complex),
}


class TestParser:
    def test_single_t(self):
        gc = parse_circuit("qubits 1\nt 0\n")
        assert gc.n == 1
        assert gc.gates == (Gate("t", (0,)),)

    def test_two_gates_with_comment(self):
        gc = parse_circuit("# header\nqubits 2\nh 0  # hadamard\n\ncnot 0 1\n")
        assert gc.n == 2
        assert [g.kind for g in gc.gates] == ["h", "cnot"]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            parse_circuit("qubits 2\ncnot 0 0\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("t 0\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(CircuitParseError, match="ccz"):
            parse_circuit("qubits 3\nccz 0 1 2\n")

    def test_arity_mismatch(self):
        with pytest.raises(CircuitParseError, match="expects 1"):
            parse_circuit("qubits 2\nh 0 1\n")

    def test_out_of_range(self):
        with pytest.raises(CircuitParseError, match="out of range"):
            parse_circuit("qubits 2\nt 2\n")

    def test_repeated_lines(self):
        # a repeated gate line is parsed once and shares its Gate; every
        # error still names the line it is on
        gc = parse_circuit("qubits 2\nh 0\ncnot 0 1\nh 0\nh 0  # again\ncnot 0 1\n")
        h, cnot = Gate("h", (0,)), Gate("cnot", (0, 1))
        assert gc.gates == (h, cnot, h, h, cnot)
        assert gc.gates[0] is gc.gates[2]
        for text, message in (
            ("qubits 2\nt 0\nt 0\nqubits 2\n", "line 4: duplicate qubits header"),
            ("qubits 2\nh 0\nh 0\nh 2\nh 0\n", "line 4: qubit index out of range"),
            ("qubits 2\nh 0\nh 0\ncnot 0 0\ncnot 0 0\n", "line 4: duplicate indices"),
        ):
            with pytest.raises(CircuitParseError, match=message):
                parse_circuit(text)

    def test_circuit_names_its_first_out_of_range_gate(self):
        # each distinct gate is checked once, the first bad one named
        h, far, farther = Gate("h", (0,)), Gate("cnot", (0, 2)), Gate("h", (3,))
        with pytest.raises(ValueError) as caught:
            GateCircuit(2, (h, far, farther, h, far, farther))
        assert str(caught.value) == "gate cnot on (0, 2) out of range for n=2"
        # equal bad gates that are distinct objects: still the first named
        copies = (Gate("h", (0,)), Gate("h", (3,)), Gate("cnot", (0, 2)), Gate("h", (3,)))
        with pytest.raises(ValueError) as caught:
            GateCircuit(2, copies)
        assert str(caught.value) == "gate h on (3,) out of range for n=2"

    # int() reads every one of these; only ASCII digits name a qubit
    @pytest.mark.parametrize(
        "index", ["1_0", "+3", "-1", "\u0663", "\uff13", "\u00b2", "1.0", "0x1"]
    )
    def test_non_ascii_digit_index_rejected(self, index):
        with pytest.raises(CircuitParseError, match="line 2: non-integer qubit index"):
            parse_circuit(f"qubits 11\nh {index}\n")
        with pytest.raises(CircuitParseError, match="line 3: non-integer qubit index"):
            parse_circuit(f"qubits 11\nh 0\ncnot 0 {index}\n")

    @pytest.mark.parametrize("count", ["1_0", "+3", "\u0663", "\uff13", "3.0"])
    def test_non_ascii_digit_qubit_count_rejected(self, count):
        with pytest.raises(CircuitParseError, match="line 1: malformed qubit count"):
            parse_circuit(f"qubits {count}\nt 0\n")


@st.composite
def gate_circuits(draw, max_n=4, max_gates=12):
    n = draw(st.integers(1, max_n))
    kinds_1q = ["h", "s", "sdg", "t", "tdg", "x", "y", "z"]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if n >= 2 and draw(st.booleans()):
            kind = draw(st.sampled_from(["cnot", "cz"]))
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 2))
            if b >= a:
                b += 1
            gates.append(Gate(kind, (a, b)))
        else:
            gates.append(Gate(draw(st.sampled_from(kinds_1q)),
                              (draw(st.integers(0, n - 1)),)))
    return GateCircuit(n, tuple(gates))


class TestRoundTrip:
    @given(gate_circuits())
    def test_parse_render_identity(self, gc):
        assert parse_circuit(render_circuit(gc)) == gc


class TestRotationNormalization:
    def test_negative_axis_folds_into_numerator(self):
        rot = PauliRotation(PauliString.from_label("-Z"), 1, 8)
        assert str(rot.axis) == "+Z"
        assert rot.num == -1

    def test_reduction(self):
        rot = PauliRotation(PauliString.from_label("X"), 2, 8)
        assert (rot.num, rot.den) == (1, 4)

    def test_angle_wraps_mod_2pi(self):
        rot = PauliRotation(PauliString.from_label("X"), 9, 8)
        assert (rot.num, rot.den) == (-7, 8)

    def test_identity_axis_rejected(self):
        with pytest.raises(ValueError):
            PauliRotation(PauliString.identity(2), 1, 8)

    def test_multiple_of_pi_rejected(self):
        with pytest.raises(ValueError):
            PauliRotation(PauliString.from_label("Z"), 8, 8)

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            PauliRotation(PauliString.from_label("Z"), 1, 16)


class TestGateDictionary:
    def test_t_gate(self):
        rots = gate_to_rotations(Gate("t", (0,)), 1)
        assert len(rots) == 1
        assert (str(rots[0].axis), rots[0].num, rots[0].den) == ("+Z", 1, 8)

    def test_cnot_entry(self):
        rots = gate_to_rotations(Gate("cnot", (0, 1)), 2)
        assert [(str(r.axis), r.num, r.den) for r in rots] == [
            ("+ZX", 1, 4),
            ("+IX", -1, 4),
            ("+ZI", -1, 4),
        ]

    @pytest.mark.parametrize("entry", sorted(GATE_MATRICES, key=str))
    def test_expansion_matches_gate_unitary(self, entry):
        kind, qubits = entry
        n = 1 if len(qubits) == 1 else 2
        rots = gate_to_rotations(Gate(kind, qubits), n)
        u = np.eye(2**n, dtype=complex)
        for r in rots:
            u = rotation_unitary(r) @ u
        target = GATE_MATRICES[entry]
        if target.shape[0] < 2**n:
            target = np.kron(target, np.eye(2))
        overlap = abs(np.trace(target.conj().T @ u)) / 2**n
        assert overlap > 1 - 1e-12, f"{entry} expansion wrong (overlap {overlap})"

    def test_pauli_gates_are_pi2_rotations(self):
        for kind in ("x", "y", "z"):
            (rot,) = gate_to_rotations(Gate(kind, (0,)), 1)
            assert rot.den == 2 and rot.is_clifford


class TestMetrics:
    def test_empty(self):
        assert circuit_metrics(RotationCircuit(1, ())) == {
            "t_count": 0,
            "naive_t_depth": 0,
        }

    def test_disjoint_rotations_share_a_layer(self):
        rc = RotationCircuit(
            2,
            (
                PauliRotation(PauliString.from_label("ZI"), 1, 8),
                PauliRotation(PauliString.from_label("IZ"), 1, 8),
            ),
        )
        assert circuit_metrics(rc) == {"t_count": 2, "naive_t_depth": 1}

    def test_anticommuting_axes_stack(self):
        rc = RotationCircuit(
            1,
            (
                PauliRotation(PauliString.from_label("X"), 1, 8),
                PauliRotation(PauliString.from_label("Z"), 1, 8),
            ),
        )
        assert circuit_metrics(rc) == {"t_count": 2, "naive_t_depth": 2}

    @given(gate_circuits())
    def test_t_count_matches_gate_count(self, gc):
        from pauliflow.canonical import to_rotation_circuit

        rc = to_rotation_circuit(gc)
        assert circuit_metrics(rc)["t_count"] == gc.t_gate_count()
