"""Clifford pushing, tableau conjugation, and oracle equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pauliflow.canonical import (
    CanonicalForm,
    CliffordTableau,
    canonical_from_json,
    canonical_to_json,
    canonicalize,
    conjugate_axis,
    push_cliffords,
    tableau_conjugate,
    to_rotation_circuit,
)
from pauliflow.circuits import Gate, GateCircuit, PauliRotation, RotationCircuit
from pauliflow.oracle import verify_canonical_form
from pauliflow.pauli import PauliString

ONE_QUBIT = ["h", "s", "sdg", "t", "tdg", "x", "y", "z"]
TWO_QUBIT = ["cnot", "cz"]


def random_circuit(n, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.4:
            kind = rng.choice(TWO_QUBIT)
            a, b = rng.sample(range(n), 2)
            gates.append(Gate(kind, (a, b)))
        else:
            gates.append(Gate(rng.choice(ONE_QUBIT), (rng.randrange(n),)))
    return GateCircuit(n, tuple(gates))


def sweep_through_trace(trace, p):
    """Reference crossing rule: conjugate p by every Clifford in the trace,
    latest first.  O(|trace|) per axis; the canonicalizer must agree."""
    for mover in reversed(trace):
        p = conjugate_axis(mover, p)
    return p


def reference_push(rc):
    """Per-axis sweep: (pi8 rotations, X images, Z images)."""
    pi8, trace = [], []
    for rot in rc.rotations:
        if rot.is_pi8:
            pi8.append(PauliRotation(sweep_through_trace(trace, rot.axis), rot.num, 8))
        else:
            trace.append(rot)
    xs = tuple(
        sweep_through_trace(trace, PauliString.single(rc.n, q, "X"))
        for q in range(rc.n)
    )
    zs = tuple(
        sweep_through_trace(trace, PauliString.single(rc.n, q, "Z"))
        for q in range(rc.n)
    )
    return tuple(pi8), xs, zs


@st.composite
def clifford_t_circuits(draw, max_qubits=24, max_gates=120):
    """Gate circuits over all 10 gate kinds on 1..max_qubits qubits."""
    n = draw(st.integers(1, max_qubits))
    kinds = ONE_QUBIT + (TWO_QUBIT if n >= 2 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
        a = draw(st.integers(0, n - 1))
        if kind in TWO_QUBIT:
            b = draw(st.integers(0, n - 2))
            gates.append(Gate(kind, (a, b + (b >= a))))
        else:
            gates.append(Gate(kind, (a,)))
    return GateCircuit(n, tuple(gates))


@st.composite
def rotation_circuits(draw, max_qubits=12, max_rotations=60):
    """Arbitrary-weight axes with every pi/8, pi/4 and pi/2 angle."""
    n = draw(st.integers(1, max_qubits))
    axis = st.tuples(
        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
    ).filter(lambda xz: xz != (0, 0))
    angle = st.sampled_from(
        [(k, 8) for k in (1, -1, 3, -3)] + [(k, 4) for k in (1, -1, 3, -3)] + [(1, 2)]
    )
    rotations = tuple(
        PauliRotation(PauliString(n, x, z, sign), num, den)
        for (x, z), sign, (num, den) in draw(
            st.lists(st.tuples(axis, st.sampled_from((0, 2)), angle),
                     max_size=max_rotations)
        )
    )
    return RotationCircuit(n, rotations)


class TestRunningTableauMatchesSweep:
    @given(clifford_t_circuits())
    @settings(max_examples=60, deadline=None)
    def test_gate_circuits(self, gc):
        cf = canonicalize(gc)
        pi8, xs, zs = reference_push(to_rotation_circuit(gc))
        # PauliRotation equality compares the signed axis and the angle
        assert cf.pi8 == pi8
        assert cf.tableau == CliffordTableau(gc.n, xs, zs)
        assert cf.measurement_bases == zs
        assert canonical_from_json(canonical_to_json(cf)) == cf
        if gc.n >= 16:
            cf.tableau.validate()

    @given(rotation_circuits())
    @settings(max_examples=60, deadline=None)
    def test_rotation_circuits(self, rc):
        cf = push_cliffords(rc)
        pi8, xs, zs = reference_push(rc)
        assert cf.pi8 == pi8
        assert cf.tableau == CliffordTableau(rc.n, xs, zs)
        assert canonical_from_json(canonical_to_json(cf)) == cf


class TestToRotationCircuit:
    def test_single_t(self):
        rc = to_rotation_circuit(GateCircuit(1, (Gate("t", (0,)),)))
        assert len(rc.rotations) == 1 and rc.rotations[0].is_pi8

    def test_h_then_t(self):
        rc = to_rotation_circuit(GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,)))))
        dens = [r.den for r in rc.rotations]
        assert dens == [4, 4, 4, 8]

    def test_cnot_then_t(self):
        rc = to_rotation_circuit(
            GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,))))
        )
        assert len(rc.rotations) == 4
        assert sum(r.is_pi8 for r in rc.rotations) == 1


class TestPushCliffords:
    def test_pure_pi8_unchanged(self):
        rot = PauliRotation(PauliString.from_label("Z"), 1, 8)
        cf = push_cliffords(RotationCircuit(1, (rot,)))
        assert cf.pi8 == (rot,)
        assert cf.clifford_trace == ()
        assert cf.tableau == CliffordTableau.identity(1)

    def test_h_conjugates_z_to_x(self):
        gc = GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,))))
        cf = canonicalize(gc)
        assert len(cf.pi8) == 1
        assert str(cf.pi8[0].axis) == "+X"
        assert cf.pi8[0].num == 1
        # the tableau is the Hadamard X <-> Z swap
        assert str(tableau_conjugate(cf.tableau, PauliString.from_label("Z"))) == "+X"
        assert str(tableau_conjugate(cf.tableau, PauliString.from_label("X"))) == "+Z"

    def test_cnot_conjugates_target_z_to_zz(self):
        gc = GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,))))
        cf = canonicalize(gc)
        assert len(cf.pi8) == 1
        assert str(cf.pi8[0].axis) == "+ZZ"
        assert verify_canonical_form(gc, cf)

    def test_t_count_preserved(self):
        rng = random.Random(7)
        for _ in range(25):
            gc = random_circuit(rng.randint(1, 4), rng.randint(0, 25), rng)
            cf = canonicalize(gc)
            assert len(cf.pi8) == gc.t_gate_count()
            assert all(r.is_pi8 for r in cf.pi8)

    def test_wide_circuit_structural(self):
        # beyond the oracle's reach: structural invariants only
        rng = random.Random(12)
        gc = random_circuit(8, 300, rng)
        cf = canonicalize(gc)
        assert len(cf.pi8) == gc.t_gate_count()
        for r in cf.pi8:
            assert r.axis.is_hermitian() and not r.axis.is_identity()
        for basis in cf.measurement_bases:
            assert basis.is_hermitian()
        cf.tableau.validate()

    @pytest.mark.parametrize("seed", range(10))
    def test_tableau_commutation_structure_random(self, seed):
        rng = random.Random(seed)
        gc = random_circuit(rng.randint(1, 5), rng.randint(1, 40), rng)
        canonicalize(gc).tableau.validate()

    def test_idempotent_on_canonical_output(self):
        gc = GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,)), Gate("s", (0,))))
        cf = canonicalize(gc)
        again = push_cliffords(RotationCircuit(cf.n, cf.pi8))
        assert again.pi8 == cf.pi8
        assert again.clifford_trace == ()

    @pytest.mark.parametrize("seed", range(40))
    def test_oracle_equivalence_random(self, seed):
        rng = random.Random(seed)
        gc = random_circuit(rng.randint(1, 4), rng.randint(1, 30), rng)
        cf = canonicalize(gc)
        assert verify_canonical_form(gc, cf, tol=1e-9)

    @pytest.mark.parametrize("num", [-3, 3])
    def test_three_quarter_turn_movers(self, num):
        # 3pi/4 Cliffords never come from the gate dictionary but are legal
        # rotation-circuit input; check the crossing rule against matrices
        from pauliflow.oracle import (
            equivalent_up_to_phase,
            unitary_of_rotations,
        )

        rng = random.Random(num)
        for _ in range(20):
            n = rng.randint(1, 3)
            mover = PauliRotation(
                PauliString(n, rng.getrandbits(n), rng.getrandbits(n) | 1), num, 4
            )
            rc = RotationCircuit(
                n,
                (
                    mover,
                    PauliRotation(
                        PauliString(n, rng.getrandbits(n) | 1, rng.getrandbits(n)),
                        rng.choice((1, -1)),
                        8,
                    ),
                ),
            )
            cf = push_cliffords(rc)
            rebuilt = unitary_of_rotations(
                list(cf.pi8) + list(cf.clifford_trace), n
            )
            assert equivalent_up_to_phase(
                unitary_of_rotations(rc.rotations, n), rebuilt, 1e-9
            )


class TestTableauConjugate:
    def test_identity_tableau(self):
        t = CliffordTableau.identity(2)
        for label in ("XI", "IZ", "YY", "-ZX"):
            p = PauliString.from_label(label)
            assert tableau_conjugate(t, p) == p

    def test_h_tableau_on_y(self):
        cf = canonicalize(GateCircuit(1, (Gate("h", (0,)),)))
        # H Y H = -Y
        assert str(tableau_conjugate(cf.tableau, PauliString.from_label("Y"))) == "-Y"

    def test_dimension_mismatch(self):
        t = CliffordTableau.identity(2)
        with pytest.raises(ValueError):
            tableau_conjugate(t, PauliString.from_label("X"))

    @pytest.mark.parametrize("seed", range(15))
    def test_composite_images_match_matrix_conjugation(self, seed):
        # generator images are checked by verify_canonical_form; this pins
        # the phase bookkeeping of the per-qubit decomposition for
        # arbitrary Hermitian products like -YY or XZ
        from pauliflow.oracle import pauli_matrix, unitary_of_rotations
        import numpy as np

        rng = random.Random(seed)
        n = rng.randint(1, 3)
        gc = random_circuit(n, rng.randint(1, 20), rng)
        cf = canonicalize(gc)
        v = unitary_of_rotations(cf.clifford_trace, n)
        for _ in range(10):
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            if x == 0 and z == 0:
                continue
            p = PauliString(n, x, z, rng.choice((0, 2)))
            expected = v.conj().T @ pauli_matrix(p) @ v
            got = pauli_matrix(tableau_conjugate(cf.tableau, p))
            np.testing.assert_allclose(expected, got, atol=1e-10)


def _tableau_validate_reference(t):
    """CliffordTableau.validate as written before the anticommutation
    kernel, one pairwise check per pair in (a, b) order (kept verbatim)."""
    images = list(t.x_images) + list(t.z_images)
    for a in range(2 * t.n):
        for b in range(a + 1, 2 * t.n):
            # X_i and Z_i anticommute; every other generator pair commutes
            should_anticommute = b == a + t.n
            if images[a].anticommutes(images[b]) != should_anticommute:
                raise ValueError(
                    f"tableau images {a} and {b} break the commutation "
                    "structure"
                )


def _validate_message(validate, t):
    try:
        validate(t)
    except ValueError as exc:
        return str(exc)
    return None


class TestTableauValidate:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 24])
    def test_one_changed_image_names_the_reference_pair(self, n):
        rng = random.Random(n)
        t = canonicalize(random_circuit(n, 20 * n, rng)).tableau
        t.validate()
        images = list(t.x_images + t.z_images)
        failed = 0
        for idx, p in enumerate(images):
            bit = 1 << rng.randrange(n)
            for changed in (
                PauliString(n, p.x ^ bit, p.z, p.phase),
                PauliString(n, p.x, p.z ^ bit, p.phase),
                PauliString(n, rng.getrandbits(n), rng.getrandbits(n), 2),
            ):
                new = images[:idx] + [changed] + images[idx + 1:]
                bad = CliffordTableau(n, tuple(new[:n]), tuple(new[n:]))
                expected = _validate_message(_tableau_validate_reference, bad)
                assert _validate_message(CliffordTableau.validate, bad) == expected
                failed += expected is not None
        # most changes break a relation (X -> Y on a qubit is one that need not)
        assert failed >= 2 * n


class TestMeasurementBases:
    def test_identity_bases(self):
        cf = canonicalize(GateCircuit(2, (Gate("t", (0,)),)))
        assert [str(b) for b in cf.measurement_bases] == ["+ZI", "+IZ"]

    def test_ends_in_h(self):
        cf = canonicalize(GateCircuit(1, (Gate("h", (0,)),)))
        assert [str(b) for b in cf.measurement_bases] == ["+X"]

    def test_s_leaves_z_alone(self):
        cf = canonicalize(GateCircuit(1, (Gate("s", (0,)),)))
        assert [str(b) for b in cf.measurement_bases] == ["+Z"]

    def test_x_flips_sign(self):
        cf = canonicalize(GateCircuit(1, (Gate("x", (0,)),)))
        assert [str(b) for b in cf.measurement_bases] == ["-Z"]


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(3)
        gc = random_circuit(3, 20, rng)
        cf = canonicalize(gc)
        restored = canonical_from_json(canonical_to_json(cf))
        assert restored.pi8 == cf.pi8
        assert restored.clifford_trace == cf.clifford_trace
        assert restored.measurement_bases == cf.measurement_bases

    def test_tampered_bases_rejected(self):
        cf = canonicalize(GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,)))))
        obj = canonical_to_json(cf)
        obj["measurement_bases"] = ["+Z"]
        with pytest.raises(ValueError, match="inconsistent"):
            canonical_from_json(obj)

    @pytest.mark.parametrize("n", ["2", 2.0, True, 0, -1, None])
    def test_n_must_be_a_positive_int(self, n):
        obj = canonical_to_json(canonicalize(
            GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,))))
        ))
        obj["n"] = n
        with pytest.raises(ValueError, match="field 'n' must be an integer >= 1"):
            canonical_from_json(obj)

    @pytest.mark.parametrize("field", ["pi8", "clifford_trace"])
    @pytest.mark.parametrize("letters", ["Z", "ZZZ"])
    def test_axes_must_have_n_letters(self, field, letters):
        obj = canonical_to_json(canonicalize(
            GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,))))
        ))
        obj[field][0]["axis"] = "+" + letters
        with pytest.raises(
            ValueError,
            match=f"field '{field}' entry 0: qubit count mismatch: {len(letters)} vs 2",
        ):
            canonical_from_json(obj)

    @pytest.mark.parametrize(
        "bases, message",
        [
            (["+ZI", "+ZZ", "+II"], "must be 2 Pauli labels"),
            (["+ZI"], "must be 2 Pauli labels"),
            (["+ZI", 5], "must be 2 Pauli labels"),
            ("+ZI", "must be 2 Pauli labels"),
            (["+ZI", "+ZZI"],
             "field 'measurement_bases' entry 1: qubit count mismatch: 3 vs 2"),
        ],
    )
    def test_bases_must_be_n_labels_of_n_letters(self, bases, message):
        obj = canonical_to_json(canonicalize(
            GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,))))
        ))
        obj["measurement_bases"] = bases
        with pytest.raises(ValueError, match=message):
            canonical_from_json(obj)
