"""Dense-matrix oracle: unitarity, phase-invariant equivalence, negative controls."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauliflow import oracle
from pauliflow.canonical import CanonicalForm, CliffordTableau, canonicalize
from pauliflow.circuits import Gate, GateCircuit, PauliRotation, gate_to_rotations
from pauliflow.oracle import (
    equivalent_up_to_phase,
    unitary_of_gates,
    unitary_of_rotations,
    verify_canonical_form,
)
from pauliflow.pauli import PauliString

from conftest import GATE_1Q, SINGLE_QUBIT, dense_gate, dense_pauli
from test_canonical import ONE_QUBIT, TWO_QUBIT, clifford_t_circuits, random_circuit

ANGLES = [(k, 8) for k in (1, -1, 3, -3)] + [(k, 4) for k in (1, -1, 3, -3)] + [
    (1, 2), (-1, 2)
]


def paulis(n, phases):
    return st.builds(
        PauliString,
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.sampled_from(phases),
    )


def assert_unitary(u):
    d = u.shape[0]
    assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10


class TestKernelsMatchKron:
    """Permutation-and-phase kernels against the Kronecker helpers."""

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_gate(self, n, data):
        kinds = ONE_QUBIT + (TWO_QUBIT if n >= 2 else [])
        kind = data.draw(st.sampled_from(kinds))
        a = data.draw(st.integers(0, n - 1))
        if kind in TWO_QUBIT:
            b = data.draw(st.integers(0, n - 2))
            gate = Gate(kind, (a, b + (b >= a)))
        else:
            gate = Gate(kind, (a,))
        np.testing.assert_allclose(
            unitary_of_gates(GateCircuit(n, (gate,))), dense_gate(gate, n), atol=1e-12
        )

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rotation(self, n, data):
        axis = data.draw(paulis(n, phases=(0, 2)).filter(lambda p: not p.is_identity()))
        num, den = data.draw(st.sampled_from(ANGLES))
        rot = PauliRotation(axis, num, den)
        phi = num * np.pi / den
        dense = np.cos(phi) * np.eye(1 << n) - 1j * np.sin(phi) * dense_pauli(axis)
        np.testing.assert_allclose(unitary_of_rotations([rot], n), dense, atol=1e-12)

    @given(clifford_t_circuits(max_qubits=6, max_gates=25))
    @settings(max_examples=60, deadline=None)
    def test_circuit_products(self, gc):
        expected = np.eye(1 << gc.n, dtype=complex)
        for gate in gc.gates:
            expected = dense_gate(gate, gc.n) @ expected
        np.testing.assert_allclose(unitary_of_gates(gc), expected, atol=1e-10)
        cf = canonicalize(gc)
        rotations = list(cf.pi8) + list(cf.clifford_trace)
        expected = np.eye(1 << gc.n, dtype=complex)
        for rot in rotations:
            phi = rot.num * np.pi / rot.den
            expected = (
                np.cos(phi) * np.eye(1 << gc.n)
                - 1j * np.sin(phi) * dense_pauli(rot.axis)
            ) @ expected
        np.testing.assert_allclose(
            unitary_of_rotations(rotations, gc.n), expected, atol=1e-10
        )


class TestUnitaryOfGates:
    def test_empty_circuit(self):
        u = unitary_of_gates(GateCircuit(2, ()))
        np.testing.assert_array_equal(u, np.eye(4))

    def test_single_x(self):
        u = unitary_of_gates(GateCircuit(1, (Gate("x", (0,)),)))
        np.testing.assert_allclose(u, np.array([[0, 1], [1, 0]]), atol=1e-14)

    def test_double_h_is_identity(self):
        u = unitary_of_gates(GateCircuit(1, (Gate("h", (0,)), Gate("h", (0,)))))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 10"):
            unitary_of_gates(GateCircuit(11, ()))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_circuits_are_unitary(self, seed):
        rng = random.Random(seed)
        gc = random_circuit(rng.randint(1, 4), rng.randint(1, 20), rng)
        assert_unitary(unitary_of_gates(gc))


class TestUnitaryOfRotations:
    def test_pi8_z_is_t_up_to_phase(self):
        rot = PauliRotation(PauliString.from_label("Z"), 1, 8)
        u = unitary_of_rotations([rot], 1)
        t = np.diag([1, np.exp(1j * np.pi / 4)])
        assert equivalent_up_to_phase(u, t, 1e-12)

    def test_rotations_are_unitary(self):
        rng = random.Random(11)
        gc = random_circuit(3, 20, rng)
        from pauliflow.canonical import to_rotation_circuit

        u = unitary_of_rotations(to_rotation_circuit(gc).rotations, 3)
        assert_unitary(u)


class TestEquivalence:
    def test_reflexive(self):
        u = unitary_of_gates(GateCircuit(1, (Gate("h", (0,)),)))
        assert equivalent_up_to_phase(u, u, 1e-12)

    def test_phase_invariant(self):
        u = unitary_of_gates(GateCircuit(2, (Gate("cnot", (0, 1)),)))
        assert equivalent_up_to_phase(u, np.exp(1j * 0.7) * u, 1e-12)

    def test_symmetric(self):
        u = unitary_of_gates(GateCircuit(1, (Gate("h", (0,)),)))
        v = unitary_of_gates(GateCircuit(1, (Gate("s", (0,)),)))
        assert equivalent_up_to_phase(u, v, 1e-9) == equivalent_up_to_phase(
            v, u, 1e-9
        )

    def test_identity_vs_x_fails(self):
        eye = np.eye(2, dtype=complex)
        x = dense_pauli(PauliString.from_label("X"))
        assert not equivalent_up_to_phase(eye, x, 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equivalent_up_to_phase(np.eye(2), np.eye(4))


class TestVerifyCanonicalForm:
    def test_single_t(self):
        gc = GateCircuit(1, (Gate("t", (0,)),))
        assert verify_canonical_form(gc, canonicalize(gc))

    def test_hth(self):
        gc = GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,)), Gate("h", (0,))))
        cf = canonicalize(gc)
        assert str(cf.pi8[0].axis) == "+X"
        assert verify_canonical_form(gc, cf)

    def test_corrupted_sign_detected(self):
        rng = random.Random(5)
        for _ in range(10):
            gc = random_circuit(rng.randint(1, 3), rng.randint(2, 15), rng)
            if gc.t_gate_count() == 0:
                continue
            cf = canonicalize(gc)
            idx = rng.randrange(len(cf.pi8))
            bad = list(cf.pi8)
            bad[idx] = PauliRotation(bad[idx].axis, -bad[idx].num, bad[idx].den)
            corrupted = CanonicalForm(
                cf.n, tuple(bad), cf.clifford_trace, cf.tableau,
            )
            assert not verify_canonical_form(gc, corrupted, tol=1e-9)

    @staticmethod
    def _cases(count):
        rng = random.Random(17)
        while count:
            gc = random_circuit(rng.randint(1, 6), rng.randint(5, 40), rng)
            cf = canonicalize(gc)
            if cf.pi8 and cf.clifford_trace:
                count -= 1
                yield rng, gc, cf

    def test_passes_and_reports_fidelity(self):
        for _, gc, cf in self._cases(10):
            verdict = verify_canonical_form(gc, cf)
            assert verdict.ok and verdict
            assert abs(verdict.fidelity - 1) < 1e-12

    def test_negated_pi8_rejected(self):
        for rng, gc, cf in self._cases(10):
            bad = list(cf.pi8)
            k = rng.randrange(len(bad))
            bad[k] = PauliRotation(bad[k].axis.negated(), bad[k].num, bad[k].den)
            corrupted = CanonicalForm(
                cf.n, tuple(bad), cf.clifford_trace, cf.tableau,
            )
            verdict = verify_canonical_form(gc, corrupted)
            assert not verdict and verdict.fidelity < 1 - 1e-9

    def test_dropped_trace_rotation_rejected(self):
        for rng, gc, cf in self._cases(10):
            trace = list(cf.clifford_trace)
            del trace[rng.randrange(len(trace))]
            corrupted = CanonicalForm(
                cf.n, cf.pi8, tuple(trace), cf.tableau
            )
            assert not verify_canonical_form(gc, corrupted)

    def test_flipped_generator_sign_rejected(self):
        # the unitary still matches, so only the tableau check can object;
        # every one of the 2n generator images is flipped in turn
        for _, gc, cf in self._cases(5):
            t = cf.tableau
            for q in range(cf.n):
                for which in ("x", "z"):
                    xs, zs = list(t.x_images), list(t.z_images)
                    images = xs if which == "x" else zs
                    images[q] = images[q].negated()
                    corrupted = CanonicalForm(
                        cf.n, cf.pi8, cf.clifford_trace,
                        CliffordTableau(cf.n, tuple(xs), tuple(zs)),
                    )
                    verdict = verify_canonical_form(gc, corrupted)
                    assert not verdict, (q, which)
                    assert abs(verdict.fidelity - 1) < 1e-12


def dense_rotations(rotations, n):
    """Ordered product of rotation matrices from Kronecker products only."""
    expected = np.eye(1 << n, dtype=complex)
    for rot in rotations:
        phi = rot.num * np.pi / rot.den
        expected = (
            np.cos(phi) * np.eye(1 << n) - 1j * np.sin(phi) * dense_pauli(rot.axis)
        ) @ expected
    return expected


def kron_gate_on_columns(gate, n, m):
    """dense_gate(gate, n) @ m from the same Kronecker factors, each one
    contracted with its qubit's axis of m, so no 2^n x 2^n matrix is made."""
    if gate.kind in GATE_1Q:
        terms = [{gate.qubits[0]: GATE_1Q[gate.kind]}]
    else:
        a, b = gate.qubits
        target = SINGLE_QUBIT["X" if gate.kind == "cnot" else "Z"]
        terms = [{a: np.diag([1, 0])}, {a: np.diag([0, 1]), b: target}]
    out = np.zeros_like(m)
    for factors in terms:
        t = m.reshape((2,) * n + (-1,))
        for q, f in factors.items():
            t = np.moveaxis(np.tensordot(f, t, axes=([1], [q])), 0, q)
        out += t.reshape(m.shape)
    return out


def rotations_of(n, axis_kind, dens):
    """Rotations about a Z-only axis ("z"), an axis with an X bit ("x") or
    any axis ("any"), at one of the denominators `dens`."""
    top = (1 << n) - 1
    x = {"z": st.just(0), "x": st.integers(1, top), "any": st.integers(0, top)}[axis_kind]
    z = st.integers(1, top) if axis_kind == "z" else st.integers(0, top)
    axis = st.builds(PauliString, st.just(n), x, z).filter(
        lambda p: not p.is_identity()
    )
    den = st.sampled_from(dens)
    num = st.sampled_from([1, -1, 3, -3, 5, -5, 7, -7])
    return st.builds(PauliRotation, axis, num, den)


@st.composite
def adversarial_rotations(draw, max_qubits=6):
    """Blocks that put a pending pi/8 phase before a permutation, the
    permutation before a diagonal factor, and that before a mixing one,
    with rotations of every class drawn in between."""
    n = draw(st.integers(1, max_qubits))
    any_rotation = st.one_of(
        rotations_of(n, "z", (8, 4)), rotations_of(n, "x", (8, 4)),
        rotations_of(n, "any", (2,)),
    )
    seq = []
    for _ in range(draw(st.integers(1, 5))):
        seq += [
            draw(rotations_of(n, "z", (8,))),
            draw(rotations_of(n, "any", (2,))),
            draw(rotations_of(n, "z", (8, 4))),
            draw(rotations_of(n, "x", (8, 4))),
        ]
        seq += draw(st.lists(any_rotation, max_size=4))
    return n, seq


@st.composite
def h_between_runs(draw, max_qubits=6):
    """Runs of cnot, x and t gates with an h between each two runs."""
    n = draw(st.integers(2, max_qubits))
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
    run_gate = st.one_of(
        st.builds(Gate, st.just("cnot"), pair),
        st.builds(Gate, st.sampled_from(["x", "t"]), qubit.map(lambda q: (q,))),
    )
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        gates += draw(st.lists(run_gate, min_size=1, max_size=6))
        gates.append(Gate("h", (draw(qubit),)))
    gates += draw(st.lists(run_gate, min_size=1, max_size=6))
    return GateCircuit(n, tuple(gates))


@st.composite
def same_mask_runs(draw, max_qubits=5):
    """Blocks of rotations that share one X mask, with Z-only rotations
    on other qubits inside them: pi/4 pairs whose product is a
    permutation, H H, and pi/8 runs whose product is a monomial only up
    to rounding, or is near one."""
    n = draw(st.integers(1, max_qubits))
    top = (1 << n) - 1
    num = st.sampled_from([1, -1, 3, -3])

    def rotation(x, z, num, den):
        return PauliRotation(PauliString(n, x, z), num, den)

    def with_diagonals(block, x):
        # Z-only rotations off the mask's qubits, between the block's rotations
        out = []
        for rot in block:
            out.append(rot)
            z = draw(st.integers(0, top)) & ~x
            if z and draw(st.booleans()):
                out.append(rotation(0, z, draw(num), draw(st.sampled_from([4, 8]))))
        return out

    seq = []
    for _ in range(draw(st.integers(1, 4))):
        x, z = draw(st.integers(1, top)), draw(st.integers(0, top))
        kind = draw(st.sampled_from(["pi/4 pair", "h h", "pi/8"]))
        if kind == "pi/4 pair":
            # about P and then P D, D diagonal and commuting with P: the
            # product is 1 where D is 1 and -iP where D is -1
            d = draw(st.integers(0, top))
            if (d & x).bit_count() % 2:
                d ^= x & -x
            sign = draw(st.sampled_from([1, -1]))
            block = [rotation(x, z, sign, 4), rotation(x, z ^ d, -sign, 4)]
        elif kind == "h h":
            x &= -x  # one qubit
            h = [rotation(0, x, 1, 4), rotation(x, 0, 1, 4), rotation(0, x, 1, 4)]
            block = h + h
        else:
            axes = st.sampled_from([z, draw(st.integers(0, top))])
            block = [rotation(x, draw(axes), draw(st.sampled_from([1, -1])), 8)
                     for _ in range(draw(st.integers(2, 6)))]
        seq += with_diagonals(block, x)
    return n, seq


def split_runs(items, mask):
    """Items in the runs the fold multiplies out: consecutive items of one
    nonzero mask, with mask-0 (diagonal) items joining an open run and a
    mask of None (another permutation) ending it."""
    runs, open_mask = [], 0
    for item in items:
        m = mask(item)
        if open_mask and m in (0, open_mask):
            runs[-1].append(item)
        elif m:
            runs.append([item])
            open_mask = m
        elif m is None:
            open_mask = 0
    return runs


def mixing_runs(runs, product):
    """How many runs' Kronecker products have two nonzero entries in a row."""
    return sum(
        bool((np.count_nonzero(np.abs(product(run)) > 1e-9, axis=1) > 1).any())
        for run in runs
    )


def gate_mask(gate):
    if gate.kind == "cnot":
        return None
    return 1 << gate.qubits[0] if gate.kind in ("h", "x", "y") else 0


def dense_gates(gates, n):
    expected = np.eye(1 << n, dtype=complex)
    for gate in gates:
        expected = dense_gate(gate, n) @ expected
    return expected


class TestMonomialFrame:
    """The pending phase-and-permutation frame against dense products, and
    the count of the O(4^n) passes it makes."""

    @given(adversarial_rotations())
    @settings(max_examples=80, deadline=None)
    def test_rotations_match_dense_fold(self, n_rotations):
        n, rotations = n_rotations
        np.testing.assert_allclose(
            unitary_of_rotations(rotations, n), dense_rotations(rotations, n),
            atol=1e-10,
        )

    @given(h_between_runs())
    @settings(max_examples=60, deadline=None)
    def test_h_between_permutation_runs(self, gc):
        expected = np.eye(1 << gc.n, dtype=complex)
        for gate in gc.gates:
            expected = dense_gate(gate, gc.n) @ expected
        np.testing.assert_allclose(unitary_of_gates(gc), expected, atol=1e-10)

    def test_long_pi2_run_stays_exact(self):
        x, z = PauliString.from_label("XXX"), PauliString.from_label("ZZZ")
        rotations = [PauliRotation(x if k % 2 else z, 1, 2) for k in range(2000)]
        u = unitary_of_rotations(rotations, 3)
        assert set(np.unique(u).tolist()) <= {0, 1, -1, 1j, -1j}
        assert_unitary(u)

    def test_long_circuit_stays_unitary(self):
        # each t multiplies a row's pending phase, and rounding drifts its
        # modulus from 1: left in u, the drift reads 1.0e-12 here, and one
        # dense pass per gate reads 9.6e-14
        rng, n, gates = random.Random(0), 6, []
        for _ in range(3000):
            kind = rng.choice(["t", "t", "t", "tdg", "h", "cnot"])
            qubits = rng.sample(range(n), 2) if kind in TWO_QUBIT else [rng.randrange(n)]
            gates.append(Gate(kind, tuple(qubits)))
        u = unitary_of_gates(GateCircuit(n, tuple(gates)))
        assert np.abs(u.conj().T @ u - np.eye(1 << n)).max() < 3e-13

    @staticmethod
    def count_mixing_passes(monkeypatch):
        calls = []
        real_mix = oracle._mix

        def counting_mix(*args):
            calls.append(1)
            return real_mix(*args)

        monkeypatch.setattr(oracle, "_mix", counting_mix)
        return calls

    def test_monomial_circuit_makes_no_dense_pass(self, monkeypatch):
        rng = random.Random(23)
        n, gates = 10, []
        for _ in range(500):
            kind = rng.choice(["s", "sdg", "t", "tdg", "x", "y", "z", "cnot", "cz"])
            qubits = rng.sample(range(n), 2) if kind in TWO_QUBIT else [rng.randrange(n)]
            gates.append(Gate(kind, tuple(qubits)))
        gc = GateCircuit(n, tuple(gates))
        calls = self.count_mixing_passes(monkeypatch)
        u = unitary_of_gates(gc)
        assert len(calls) == 0
        # a few columns, folded gate by gate with the Kronecker reference
        cols = [0, 1, 517, 1023]
        expected = np.eye(1 << n, dtype=complex)[:, cols]
        for gate in gates:
            expected = kron_gate_on_columns(gate, n, expected)
        np.testing.assert_allclose(u[:, cols], expected, atol=1e-12)
        assert (np.count_nonzero(u, axis=1) == 1).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_only_mixing_factors_make_dense_passes(self, monkeypatch, seed):
        # one pass for each run whose Kronecker product mixes
        rng = random.Random(seed)
        gc = random_circuit(5, 60, rng)
        cf = canonicalize(gc)
        calls = self.count_mixing_passes(monkeypatch)
        unitary_of_gates(gc)
        runs = split_runs(gc.gates, gate_mask)
        assert len(calls) == mixing_runs(runs, lambda run: dense_gates(run, gc.n))
        for rotations in (cf.clifford_trace, cf.pi8):
            calls.clear()
            unitary_of_rotations(rotations, gc.n)
            runs = split_runs(rotations, lambda r: r.axis.x)
            assert len(calls) == mixing_runs(
                runs, lambda run: dense_rotations(run, gc.n)
            )

    @given(same_mask_runs())
    @settings(max_examples=80, deadline=None)
    def test_same_mask_runs_match_dense_fold(self, n_rotations):
        n, rotations = n_rotations
        np.testing.assert_allclose(
            unitary_of_rotations(rotations, n), dense_rotations(rotations, n),
            atol=1e-10,
        )

    @staticmethod
    def permutation_gates(rng, n, count):
        gates = []
        for _ in range(count):
            kind = rng.choice(["cnot", "cz", "s", "sdg", "x", "y", "z"])
            qubits = rng.sample(range(n), 2) if kind in TWO_QUBIT else [rng.randrange(n)]
            gates.append(Gate(kind, tuple(qubits)))
        return gates

    def test_permutation_trace_makes_no_dense_pass(self, monkeypatch):
        # a cnot's three rotations multiply to a permutation exactly, as
        # do those of cz, s, sdg, x, y and z
        n = 6
        gc = GateCircuit(n, tuple(self.permutation_gates(random.Random(29), n, 300)))
        trace = canonicalize(gc).clifford_trace
        calls = self.count_mixing_passes(monkeypatch)
        u = unitary_of_rotations(trace, n)
        assert len(calls) == 0
        np.testing.assert_allclose(u, dense_rotations(trace, n), atol=1e-10)
        assert (np.count_nonzero(u, axis=1) == 1).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_isolated_h_makes_one_dense_pass(self, monkeypatch, seed):
        # the h's Z X Z, alone and among permutation gates, whose
        # rotations about its qubit join its run
        rng, n = random.Random(seed), 5
        gates = self.permutation_gates(rng, n, 40)
        gates.insert(rng.randrange(len(gates) + 1), Gate("h", (rng.randrange(n),)))
        calls = self.count_mixing_passes(monkeypatch)
        for trace in (
            gate_to_rotations(Gate("h", (seed,)), n),
            canonicalize(GateCircuit(n, tuple(gates))).clifford_trace,
        ):
            calls.clear()
            u = unitary_of_rotations(trace, n)
            assert len(calls) == 1
            np.testing.assert_allclose(u, dense_rotations(trace, n), atol=1e-10)

    def test_h_t_h_gate_run_makes_no_dense_pass(self, monkeypatch):
        # h q, t r, h q (r != q) is one run, whose product is diagonal
        n = 3
        calls = self.count_mixing_passes(monkeypatch)
        for q, r in itertools.permutations(range(n), 2):
            gates = (Gate("h", (q,)), Gate("t", (r,)), Gate("h", (q,)))
            calls.clear()
            u = unitary_of_gates(GateCircuit(n, gates))
            assert len(calls) == 0
            np.testing.assert_allclose(u, dense_gates(gates, n), atol=1e-12)

    def test_rounded_cancellation_still_mixes(self, monkeypatch):
        # four pi/8 rotations about one axis make -iP, a monomial, but
        # their product keeps 2e-16 where -iP has zeros: a monomial test
        # with a tolerance would drop what is left, and this one is exact
        rotations = [PauliRotation(PauliString.from_label("XZ"), 1, 8)] * 4
        calls = self.count_mixing_passes(monkeypatch)
        u = unitary_of_rotations(rotations, 2)
        assert len(calls) == 1
        np.testing.assert_allclose(u, dense_rotations(rotations, 2), atol=1e-12)

    def test_distinct_rotations_stay_in_memory_budget(self):
        # 2000 distinct pi/8 rotations at n = 10, in four runs of one X
        # mask each, so four dense passes; their factors are built in 63
        # segments.  Bound: the two 2^n x 2^n buffers and 32 bytes a row
        # of _MEMO_ROWS (2 MiB).  This build peaks 1.47 MB above the
        # buffers; one that kept the first 64 items' factors for the whole
        # build, with a float a and an index array each, peaked 2.37 MB
        # above them
        n = 10
        rotations = [
            PauliRotation(PauliString(n, 1 << (k // 500), 2 * (k % 500) + 1), 1, 8)
            for k in range(2000)
        ]
        assert len(set(rotations)) == 2000
        tracemalloc.start()
        try:
            unitary_of_rotations(rotations, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * 4**n + 32 * oracle._MEMO_ROWS


def elementwise_verify(gc, cf, tol=1e-9):
    """`verify_canonical_form` with the tableau judged elementwise, as
    np.allclose(g V, V T(g), rtol=1e-5, atol=max(100 tol, 1e-10)) for
    each generator g: the reference its verdicts at tol = 1e-9 match."""
    if gc.n != cf.n:
        raise ValueError("qubit count mismatch between circuit and canonical form")
    original = unitary_of_gates(gc)
    w = unitary_of_rotations(cf.pi8, cf.n)
    v = unitary_of_rotations(cf.clifford_trace, cf.n)
    fidelity = oracle.overlap(original, v @ w)
    if fidelity < 1 - tol:
        return False
    atol = max(100 * tol, 1e-10)
    t = cf.tableau
    gv, vt = np.empty_like(v), np.empty_like(v)
    gap, limit = np.empty(v.shape), np.empty(v.shape)
    for q in range(cf.n):
        for letter, image in (("X", t.x_images[q]), ("Z", t.z_images[q])):
            perm, d = oracle._pauli_columns(PauliString.single(cf.n, q, letter))
            np.take(v, perm, axis=0, out=gv, mode="clip")
            gv *= d[perm, None]
            perm, d = oracle._pauli_columns(image)
            np.take(v, perm, axis=1, out=vt, mode="clip")
            vt *= d
            np.abs(vt, out=limit)
            limit *= 1e-5
            limit += atol
            np.subtract(gv, vt, out=gv)
            np.abs(gv, out=gap)
            if not (gap <= limit).all():
                return False
    return True


def with_images(cf, xs, zs):
    return CanonicalForm(
        cf.n, cf.pi8, cf.clifford_trace, CliffordTableau(cf.n, tuple(xs), tuple(zs))
    )


def negated_image(cf, q, which):
    xs, zs = list(cf.tableau.x_images), list(cf.tableau.z_images)
    images = xs if which == "x" else zs
    images[q] = images[q].negated()
    return with_images(cf, xs, zs)


def swapped_images(cf, q):
    xs, zs = list(cf.tableau.x_images), list(cf.tableau.z_images)
    xs[q], zs[q] = zs[q], xs[q]
    return with_images(cf, xs, zs)


class TestOnePassRule:
    """Each tableau image is judged as an overlap against 1 - tol, as the
    fidelity is: Re<V, g V T(g)> / 2^n is 1, 0 or -1."""

    @given(clifford_t_circuits(max_qubits=5, max_gates=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_verdicts_match_elementwise_reference(self, gc, data):
        cf = canonicalize(gc)
        q = data.draw(st.integers(0, cf.n - 1))
        which = data.draw(st.sampled_from(["x", "z"]))
        xs, zs = list(cf.tableau.x_images), list(cf.tableau.z_images)
        images = xs if which == "x" else zs
        old = images[q]
        images[q] = data.draw(
            paulis(cf.n, (0, 2)).filter(lambda p: (p.x, p.z) != (old.x, old.z))
        )
        cases = [
            (cf, True),
            (negated_image(cf, q, which), False),
            (swapped_images(cf, q), False),
            (with_images(cf, xs, zs), False),
        ]
        for form, expected in cases:
            assert elementwise_verify(gc, form) == expected
            assert bool(verify_canonical_form(gc, form)) == expected

    def test_swapped_images_rejected(self):
        # the unitary matches; only the tableau check can object, and the
        # images differ in letters, not only in sign
        for _, gc, cf in TestVerifyCanonicalForm._cases(5):
            for q in range(cf.n):
                verdict = verify_canonical_form(gc, swapped_images(cf, q))
                assert not verdict, q
                assert abs(verdict.fidelity - 1) < 1e-12

    def test_negated_image_rejected_at_loose_tol(self):
        # the agreement of a negated image is -1, below 1 - tol for every
        # tol in (0, 1); elementwise, atol = 50 passed it
        for _, gc, cf in TestVerifyCanonicalForm._cases(5):
            assert verify_canonical_form(gc, cf, tol=0.5)
            for q in range(cf.n):
                for which in ("x", "z"):
                    corrupted = negated_image(cf, q, which)
                    assert elementwise_verify(gc, corrupted, tol=0.5)
                    assert not verify_canonical_form(gc, corrupted, tol=0.5)

    @pytest.mark.parametrize("tol", [0, 1, 2, np.inf, np.nan, -1e-9])
    def test_tol_outside_unit_interval_rejected(self, tol):
        gc = GateCircuit(1, (Gate("t", (0,)),))
        cf, u = canonicalize(gc), unitary_of_gates(gc)
        message = r"tolerance must be in \(0, 1\), got "
        with pytest.raises(ValueError, match=message):
            verify_canonical_form(gc, cf, tol)
        with pytest.raises(ValueError, match=message):
            equivalent_up_to_phase(u, u, tol)


def clifford_part(gc):
    """The circuit without its t and tdg gates: the V that verify builds."""
    return GateCircuit(gc.n, tuple(g for g in gc.gates if g.kind not in ("t", "tdg")))


def whole_matrix_images_hold(v, tableau, tol):
    """Re<V, g V T(g)> / 2^n >= 1 - tol for every generator g, from dense
    Pauli matrices: the whole-matrix rule that the n + 1 columns replace."""
    n, dim = tableau.n, v.shape[0]
    generators = [PauliString.single(n, q, letter) for letter in "XZ" for q in range(n)]
    images = tableau.x_images + tableau.z_images
    return all(np.vdot(v, dense_pauli(g) @ v @ dense_pauli(t)).real / dim >= 1 - tol
               for g, t in zip(generators, images))


@st.composite
def altered_tableaux(draw, tableau):
    """The tableau with up to three edits: an image negated, a qubit's X
    and Z images swapped, an image times c Z^b (c = +-1 if Z^b commutes
    with it, +-i if not, so that it stays Hermitian: then R = c Z^b, the
    case that needs the columns 2^j), or an image replaced by a random
    Hermitian Pauli."""
    n = tableau.n
    rows = {"x": list(tableau.x_images), "z": list(tableau.z_images)}
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(0, n - 1))
        images = rows[draw(st.sampled_from("xz"))]
        kind = draw(st.sampled_from(["negate", "swap", "diagonal", "random"]))
        if kind == "negate":
            images[q] = images[q].negated()
        elif kind == "swap":
            rows["x"][q], rows["z"][q] = rows["z"][q], rows["x"][q]
        elif kind == "diagonal":
            d = PauliString(n, 0, draw(st.integers(1, (1 << n) - 1)))
            turn = 0 if d.commutes(images[q]) else 1
            c = draw(st.sampled_from([turn, turn + 2]))
            images[q] = images[q] * PauliString(n, 0, d.z, c)
        else:
            images[q] = draw(paulis(n, (0, 2)))
    return CliffordTableau(n, tuple(rows["x"]), tuple(rows["z"]))


class TestColumnRule:
    """`_images_hold` judges each image on n + 1 columns of V; it must give
    the whole-matrix verdict at every tol, and that verdict is exactly
    whether every image is V^dag g V."""

    @given(clifford_t_circuits(max_qubits=6, max_gates=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_whole_matrix_rule(self, gc, data):
        cf = canonicalize(gc)
        tableau = data.draw(altered_tableaux(cf.tableau))
        right = tableau == cf.tableau
        v = unitary_of_gates(clifford_part(gc))
        for tol in (1e-9, 0.5):
            assert oracle._images_hold(v, tableau, tol) == right
            assert whole_matrix_images_hold(v, tableau, tol) == right
        # the whole verdict, against the elementwise reference, whose V
        # comes from the trace; at tol 0.5 that reference passes any image
        form = with_images(cf, tableau.x_images, tableau.z_images)
        assert bool(verify_canonical_form(gc, form)) == elementwise_verify(gc, form) == right
        assert bool(verify_canonical_form(gc, form, tol=0.5)) == right
