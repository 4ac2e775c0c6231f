"""Clifford pushing, tableau conjugation, and oracle equivalence."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_gate, dense_pauli
from pauliflow.canonical import (
    GATE_RULES,
    _conjugate,
    _cross,
    CanonicalForm,
    CliffordTableau,
    Trace,
    canonical_from_json,
    canonical_to_json,
    canonicalize,
    clifford_trace,
    conjugate_axis,
    push_cliffords,
    rotations_from_json,
    tableau_from_trace,
    to_rotation_circuit,
)
from pauliflow.circuits import (
    SCHEMA_VERSION,
    Gate,
    GateCircuit,
    PauliRotation,
    RotationCircuit,
)
from pauliflow.layers import build_layers
from pauliflow.oracle import unitary_of_rotations, verify_canonical_form
from pauliflow.pauli import PauliString, raw_product

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


def as_trace(rotations):
    """A Trace with one distinct entry per rotation, in order."""
    rotations = tuple(rotations)
    return Trace(rotations, tuple(range(len(rotations))))


def transpiled(gc, layers=None):
    """The payload that transpile (optimize, given layers) writes for gc,
    as a JSON object, without its tail."""
    return json.loads(canonical_to_json(canonicalize(gc), clifford_trace(gc), layers))


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
    """Gate circuits over all 10 gate kinds on 1..max_qubits qubits.

    The gate count is drawn first, uniformly: drawn as a list, the
    length shrinks towards a handful of gates.
    """
    n = draw(st.integers(1, max_qubits))
    kinds = ONE_QUBIT + (TWO_QUBIT if n >= 2 else [])
    count = draw(st.integers(0, max_gates))
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=count, max_size=count)):
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
    """Both tableau kernels against the per-axis sweep: the gate rules that
    `canonicalize` runs on gate circuits, and the running tableau of
    `push_cliffords` on rotation circuits."""

    @given(clifford_t_circuits())
    @settings(max_examples=60, deadline=None)
    def test_gate_circuits(self, gc):
        cf = canonicalize(gc)
        pi8, xs, zs = reference_push(to_rotation_circuit(gc))
        # PauliRotation equality compares the signed axis and the angle
        assert cf.pi8 == pi8
        assert cf.tableau == CliffordTableau(gc.n, xs, zs)
        assert cf.measurement_bases == zs
        trace = clifford_trace(gc)
        assert canonical_from_json(json.loads(canonical_to_json(cf, trace))) == (cf, trace)
        if gc.n >= 16:
            cf.tableau.validate()

    @given(rotation_circuits())
    @settings(max_examples=60, deadline=None)
    def test_rotation_circuits(self, rc):
        cf = push_cliffords(rc)
        pi8, xs, zs = reference_push(rc)
        assert cf.pi8 == pi8
        assert cf.tableau == CliffordTableau(rc.n, xs, zs)
        trace = as_trace(r for r in rc.rotations if r.is_clifford)
        restored, read = canonical_from_json(json.loads(canonical_to_json(cf, trace)))
        assert restored == cf and read.rotations() == trace.rotations()


class TestRunningTableauKernel:
    """The raw-triple tableau on its own, against the one-rotation rule."""

    @given(rotation_circuits())
    @settings(max_examples=60, deadline=None)
    def test_tableau_from_trace_folds_conjugate_axis(self, rc):
        trace = [r for r in rc.rotations if r.is_clifford]
        expected = CliffordTableau(
            rc.n,
            tuple(sweep_through_trace(trace, PauliString.single(rc.n, q, "X"))
                  for q in range(rc.n)),
            tuple(sweep_through_trace(trace, PauliString.single(rc.n, q, "Z"))
                  for q in range(rc.n)),
        )
        assert tableau_from_trace(rc.n, trace) == expected

    def test_trace_entries_must_be_clifford_on_n_qubits(self):
        z = PauliString.from_label("ZI")
        with pytest.raises(ValueError, match="only Clifford rotations"):
            tableau_from_trace(2, [PauliRotation(z, 1, 4), PauliRotation(z, 1, 8)])
        with pytest.raises(ValueError, match="qubit count mismatch: 3 vs 2"):
            tableau_from_trace(2, [PauliRotation(PauliString.from_label("ZZZ"), 1, 4)])

    def test_trace_entries_fail_at_the_first_bad_entry(self):
        z, zzz = PauliString.from_label("ZI"), PauliString.from_label("ZZZ")
        with pytest.raises(ValueError, match="only Clifford rotations"):
            tableau_from_trace(2, [PauliRotation(z, 1, 4), PauliRotation(z, 1, 8),
                                   PauliRotation(zzz, 1, 4)])
        with pytest.raises(ValueError, match="qubit count mismatch: 3 vs 2"):
            tableau_from_trace(2, [PauliRotation(z, 1, 4), PauliRotation(zzz, 1, 4),
                                   PauliRotation(z, 1, 8)])

    @given(st.integers(1, 70), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_letter_movers_cross_as_the_general_rule(self, n, data):
        # any rows, not only a tableau's: the one-letter update is the general
        # rule's algebra with A read off a row, for movers of both signs
        row = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
                        st.integers(0, 3))
        xs = data.draw(st.lists(row, min_size=n, max_size=n))
        zs = data.draw(st.lists(row, min_size=n, max_size=n))
        axis = PauliString.single(n, data.draw(st.integers(0, n - 1)),
                                  data.draw(st.sampled_from("XZ")))
        if data.draw(st.booleans()):
            axis = axis.negated()
        mover = PauliRotation(axis, data.draw(st.sampled_from([1, -1, 3, -3])), 4)
        axis = mover.axis  # a negative sign moves into the angle
        # the general rule: A = F(axis), and each image of a generator that
        # anticommutes with the axis becomes (+-i) A F(g)
        a = _conjugate(xs, zs, axis.x, axis.z, axis.phase)
        turn = 1 if mover.num % 4 == 1 else 3
        expected_xs, expected_zs = list(xs), list(zs)
        for q in range(n):
            for images, letter in ((expected_xs, "X"), (expected_zs, "Z")):
                if axis.anticommutes(PauliString.single(n, q, letter)):
                    x, z, phase = raw_product(a, images[q])
                    images[q] = (x, z, (phase + turn) % 4)
        _cross(xs, zs, mover)
        assert (xs, zs) == (expected_xs, expected_zs)

    @given(clifford_t_circuits())
    @settings(max_examples=60, deadline=None)
    def test_reader_replays_the_trace_by_index(self, gc):
        # the dictionary expansion repeats its distinct rotations
        cf, trace = canonical_from_json(transpiled(gc))
        assert cf.tableau == tableau_from_trace(gc.n, trace.rotations())

    def test_reader_refuses_a_pi8_trace_entry(self):
        obj = transpiled(GateCircuit(2, (Gate("s", (0,)), Gate("h", (1,)), Gate("t", (1,)))))
        obj["clifford_trace"][2]["den"] = 8
        with pytest.raises(ValueError, match="^only Clifford rotations may be moved across$"):
            canonical_from_json(obj)

    def test_reader_names_the_first_trace_entry_of_the_wrong_width(self):
        # widths are read before any entry is replayed: the pi/8 at entry 1
        # is not reached
        obj = transpiled(GateCircuit(2, (Gate("s", (0,)), Gate("h", (1,)), Gate("t", (1,)))))
        obj["clifford_trace"][1]["den"] = 8
        obj["clifford_trace"][2]["axis"] = "+ZZZ"
        obj["clifford_trace"][3]["axis"] = "+Z"
        with pytest.raises(ValueError, match="^field 'clifford_trace' entry 2: "
                                             "qubit count mismatch: 3 vs 2$"):
            canonical_from_json(obj)


class TestGateRules:
    """The gate-level tableau that transpile runs: the trace it writes,
    and each rule against dense matrices."""

    @given(clifford_t_circuits())
    @settings(max_examples=60, deadline=None)
    def test_trace_is_the_dictionary_expansion(self, gc):
        # the rules compute the tableau; the payload's trace stays the
        # Clifford entries of the rotation circuit, which readers replay
        rotations = to_rotation_circuit(gc).rotations
        assert transpiled(gc)["clifford_trace"] == [
            {"axis": str(r.axis), "num": r.num, "den": r.den}
            for r in rotations if r.is_clifford]

    def test_repeated_gates_build_each_trace_rotation_once(self, monkeypatch):
        # h 0 and s 0 share +Z/4 on qubit 0, and cnot 0 1 and cz 1 0 share
        # its -Z/4: the old per-gate expansion built 10 rotations for 7
        gates = (Gate("h", (0,)), Gate("s", (0,)), Gate("cnot", (0, 1)),
                 Gate("cz", (1, 0)), Gate("t", (1,)))
        gc = GateCircuit(2, gates * 50)
        built = []
        post_init = PauliRotation.__post_init__

        def counting(rot):
            built.append(rot)
            post_init(rot)

        monkeypatch.setattr(PauliRotation, "__post_init__", counting)
        canonicalize(gc)
        assert len(built) == gc.t_gate_count()
        trace = clifford_trace(gc)
        assert len(trace.distinct) == len(set(trace.distinct)) == 7
        assert len(built) <= len(trace.distinct) + gc.t_gate_count()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_gate_conjugates_each_generator(self, n):
        # the image T(g) of generator g under gate G satisfies g G = G T(g)
        for kind in GATE_RULES:
            placements = ([(a, b) for a in range(n) for b in range(n) if a != b]
                          if kind in TWO_QUBIT else [(q,) for q in range(n)])
            for qubits in placements:
                gate = Gate(kind, qubits)
                g_matrix = dense_gate(gate, n)
                tableau = canonicalize(GateCircuit(n, (gate,))).tableau
                for q in range(n):
                    for letter, image in (("X", tableau.x_images[q]),
                                          ("Z", tableau.z_images[q])):
                        g = dense_pauli(PauliString.single(n, q, letter))
                        assert np.allclose(g @ g_matrix, g_matrix @ dense_pauli(image)), (
                            f"{kind} {qubits}: {letter}{q}")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_t_reads_its_axis_from_the_z_row(self, n):
        # after Clifford C, T on q is C followed by a pi/8 rotation about
        # A = C^dag Z_q C: Z_q C = C A
        for kind in GATE_RULES:
            qubits = (0, n - 1) if kind in TWO_QUBIT else (n - 1,)
            if len(set(qubits)) != len(qubits):
                continue
            clifford = Gate(kind, qubits)
            c_matrix = dense_gate(clifford, n)
            for q in range(n):
                for t in ("t", "tdg"):
                    (rot,) = canonicalize(GateCircuit(n, (clifford, Gate(t, (q,))))).pi8
                    axis = rot.axis if rot.num == (1 if t == "t" else -1) else rot.axis.negated()
                    z = dense_pauli(PauliString.single(n, q, "Z"))
                    assert np.allclose(z @ c_matrix, c_matrix @ dense_pauli(axis))


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
        assert cf.tableau == CliffordTableau.identity(1)

    def test_h_conjugates_z_to_x(self):
        gc = GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,))))
        cf = canonicalize(gc)
        assert len(cf.pi8) == 1
        assert str(cf.pi8[0].axis) == "+X"
        assert cf.pi8[0].num == 1
        # the tableau is the Hadamard X <-> Z swap
        assert str(cf.tableau.z_images[0]) == "+X"
        assert str(cf.tableau.x_images[0]) == "+Z"

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
        assert again.tableau == CliffordTableau.identity(cf.n)

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
            rebuilt = unitary_of_rotations(list(cf.pi8) + [mover], n)
            assert equivalent_up_to_phase(
                unitary_of_rotations(rc.rotations, n), rebuilt, 1e-9
            )


class TestTableauConjugate:
    @pytest.mark.parametrize("seed", range(15))
    def test_composite_images_match_matrix_conjugation(self, seed):
        # generator images are checked by verify_canonical_form; this pins
        # the phase bookkeeping of the per-qubit decomposition for
        # arbitrary Hermitian products like -YY or XZ: a pi/8 rotation
        # about P after the circuit is pushed to one about V^dag P V
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        gc = random_circuit(n, rng.randint(1, 20), rng)
        trace = clifford_trace(gc).rotations()
        v = unitary_of_rotations(trace, n)
        for _ in range(10):
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            if x == 0 and z == 0:
                continue
            p = PauliString(n, x, z, rng.choice((0, 2)))
            cf = push_cliffords(RotationCircuit(n, trace + (PauliRotation(p, 1, 8),)))
            (rot,) = cf.pi8
            expected = v.conj().T @ dense_pauli(p) @ v
            np.testing.assert_allclose(rot.num * dense_pauli(rot.axis), expected, atol=1e-10)


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


class TestRefusals:
    """Each refusal of the tableau and the one-rotation rule, by its message."""

    def test_tableau_needs_one_image_per_generator(self):
        xs, zs = CliffordTableau.identity(2).x_images, CliffordTableau.identity(2).z_images
        with pytest.raises(ValueError, match="tableau needs one image per generator"):
            CliffordTableau(2, xs[:1], zs)
        with pytest.raises(ValueError, match="tableau needs one image per generator"):
            CliffordTableau(2, xs, zs + zs[:1])

    def test_tableau_images_must_be_hermitian(self):
        xs, zs = CliffordTableau.identity(2).x_images, CliffordTableau.identity(2).z_images
        with pytest.raises(ValueError,
                           match="tableau images must be Hermitian length-n Paulis"):
            CliffordTableau(2, (PauliString(2, 1, 0, 1), xs[1]), zs)

    def test_tableau_images_must_have_n_letters(self):
        xs, zs = CliffordTableau.identity(2).x_images, CliffordTableau.identity(2).z_images
        with pytest.raises(ValueError,
                           match="tableau images must be Hermitian length-n Paulis"):
            CliffordTableau(2, xs, (zs[0], PauliString.from_label("ZZZ")))

    def test_conjugate_axis_refuses_a_pi8_mover(self):
        z = PauliString.from_label("Z")
        with pytest.raises(ValueError, match="only Clifford rotations may be moved across"):
            conjugate_axis(PauliRotation(z, 1, 8), PauliString.from_label("X"))


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
        cf, trace = canonicalize(gc), clifford_trace(gc)
        restored, read = canonical_from_json(json.loads(canonical_to_json(cf, trace)))
        assert restored.pi8 == cf.pi8
        assert read == trace
        assert restored.measurement_bases == cf.measurement_bases

    @given(st.integers(1, 6), st.integers(0, 60), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_layered_roundtrip(self, n, n_gates, seed):
        # the layered payload reads back with its layers, in order, as pi8
        gc = random_circuit(n, n_gates, random.Random(seed))
        cf = canonicalize(gc)
        layering = build_layers(cf.pi8) if cf.pi8 else None
        layers = [[layering.rotations[i] for i in layer]
                  for layer in layering.layers] if layering else []
        obj = transpiled(gc, layers)
        assert "pi8" not in obj
        assert [len(layer) for layer in obj["layers"]] == [len(layer) for layer in layers]
        restored, read = canonical_from_json(obj)
        assert restored.pi8 == tuple(r for layer in layers for r in layer)
        assert read == clifford_trace(gc)
        assert restored.tableau == cf.tableau
        assert restored.measurement_bases == cf.tableau.z_images

    def test_equal_entries_share_one_rotation(self):
        # equal entries read back as one PauliRotation; the memo is looked
        # up only after the type check, so a "num": true twin of a
        # "num": 1 entry is still refused (True == 1 and hashes alike)
        entry = {"axis": "+Z", "num": 1, "den": 8}
        first, second, other = rotations_from_json(
            [entry, dict(entry), {**entry, "num": -1}], 1, "field 'pi8'")
        assert second is first
        assert other is not first and other.num == -1
        with pytest.raises(ValueError, match="rotation field 'num' must be of "
                                             "type int, got True"):
            rotations_from_json([entry, {**entry, "num": True}], 1, "field 'pi8'")

    def test_mismatch_names_the_first_bad_entry(self):
        good, bad = {"axis": "+ZI", "num": 1, "den": 4}, {"axis": "+Z", "num": 1, "den": 4}
        with pytest.raises(ValueError, match="field 'pi8' entry 2: qubit count mismatch: 1 vs 2"):
            rotations_from_json([good, good, bad, good, bad], 2, "field 'pi8'")

    def test_malformed_entry_errors_keep_field_order(self):
        # the first field that is missing or of the wrong type is named
        with pytest.raises(ValueError, match="rotation field 'axis' must be of type str"):
            rotations_from_json([{"axis": 5, "den": 4}], 1, "field 'pi8'")
        with pytest.raises(KeyError, match="num"):
            rotations_from_json([{"axis": "+Z", "den": True}], 1, "field 'pi8'")
        with pytest.raises(ValueError, match="rotation must be a JSON object"):
            rotations_from_json([["+Z", 1, 8]], 1, "field 'pi8'")

    def test_dict_subclass_entry_reads_as_a_dict(self):
        class Entry(dict):
            pass

        (rot,) = rotations_from_json([Entry(axis="+Z", num=1, den=8)], 1, "field 'pi8'")
        assert rot == PauliRotation(PauliString.from_label("Z"), 1, 8)

    @pytest.mark.parametrize(
        "layers, message",
        [([["+Z", "+X"]], r"rotations 0 and 1 share a layer but anticommute \(layer 0\)"),
         ([["+Z"], [], ["+X"]], "layer 1 is empty"),
         ([[]], "layer 0 is empty")],
        ids=["squashed", "empty-between", "empty-only"],
    )
    def test_layers_must_form_a_layering(self, layers, message):
        # t h t: two pi/8 rotations, Z then X, which ASAP puts in two layers
        gc = GateCircuit(1, (Gate("t", (0,)), Gate("h", (0,)), Gate("t", (0,))))
        obj = transpiled(gc, [[r] for r in canonicalize(gc).pi8])
        assert [[r["axis"] for r in layer] for layer in obj["layers"]] == [["+Z"], ["+X"]]
        obj["layers"] = [[{"axis": a, "num": 1, "den": 8} for a in layer]
                         for layer in layers]
        with pytest.raises(ValueError, match=f"field 'layers': {message}"):
            canonical_from_json(obj)
        # every earlier reader error keeps its precedence
        obj["schema_version"] = 2
        with pytest.raises(ValueError, match="field 'schema_version'"):
            canonical_from_json(obj)
        obj["layers"][-1:] = [[{"axis": "+Z", "num": 1, "den": 4}]]
        obj["schema_version"] = SCHEMA_VERSION
        with pytest.raises(ValueError, match="pi8 section may only contain"):
            canonical_from_json(obj)

    def test_tampered_bases_rejected(self):
        obj = transpiled(GateCircuit(1, (Gate("h", (0,)), Gate("t", (0,)))))
        obj["measurement_bases"] = ["+Z"]
        with pytest.raises(ValueError, match="inconsistent"):
            canonical_from_json(obj)

    @pytest.mark.parametrize("n", ["2", 2.0, True, 0, -1, None])
    def test_n_must_be_a_positive_int(self, n):
        obj = transpiled(GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,)))))
        obj["n"] = n
        with pytest.raises(ValueError, match="field 'n' must be an integer >= 1"):
            canonical_from_json(obj)

    @pytest.mark.parametrize("field", ["pi8", "clifford_trace"])
    @pytest.mark.parametrize("letters", ["Z", "ZZZ"])
    def test_axes_must_have_n_letters(self, field, letters):
        obj = transpiled(GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,)))))
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
        obj = transpiled(GateCircuit(2, (Gate("cnot", (0, 1)), Gate("t", (1,)))))
        obj["measurement_bases"] = bases
        with pytest.raises(ValueError, match=message):
            canonical_from_json(obj)

    @pytest.mark.parametrize("version", [2, "1", True])
    def test_schema_version_must_be_the_int(self, version):
        obj = transpiled(GateCircuit(1, (Gate("t", (0,)),)))
        obj["schema_version"] = version
        with pytest.raises(ValueError, match=f"field 'schema_version' must be the "
                                             f"integer {SCHEMA_VERSION}, got {version!r}"):
            canonical_from_json(obj)

    def test_schema_version_is_required(self):
        obj = transpiled(GateCircuit(1, (Gate("t", (0,)),)))
        del obj["schema_version"]
        with pytest.raises(KeyError, match="schema_version"):
            canonical_from_json(obj)


def _canonical_to_json_reference(cf, trace, layers=None):
    """The payload as a dict, as canonical_to_json built it before it
    rendered the text itself (kept verbatim, but for the trace, which the
    form no longer holds, given as a list of rotations); the writer's text
    must be json.dumps(..., indent=2) of it."""
    labels: dict = {}

    def entry(rot: PauliRotation) -> dict:
        # render each distinct axis once, but give every entry its own dict
        label = labels.get(rot.axis)
        if label is None:
            label = labels[rot.axis] = str(rot.axis)
        return {"axis": label, "num": rot.num, "den": rot.den}

    payload: dict = {"schema_version": SCHEMA_VERSION, "n": cf.n}
    if layers is None:
        payload["pi8"] = [entry(r) for r in cf.pi8]
    else:
        payload["layers"] = [[entry(r) for r in layer] for layer in layers]
    payload["clifford_trace"] = [entry(r) for r in trace]
    payload["measurement_bases"] = [str(b) for b in cf.measurement_bases]
    return payload


def asap_layers(pi8):
    if not pi8:
        return []
    layering = build_layers(pi8)
    return [[layering.rotations[i] for i in layer] for layer in layering.layers]


TRANSPILE_TAIL = {"metrics": {"t_count": 3, "naive_t_depth": 2}}
OPTIMIZE_TAIL = {
    "report": {"initial_t_depth": 4, "final_t_depth": 2, "rounds": 3,
               "merges_per_round": [], "seed": 3, "history": [[1, [2, []]], [], {}],
               "ratio": 0.125, "note": "caf\u00e9 \"a\"\nb"},
    "method": "ga",
}


def assert_writes_json_dumps(cf, trace, layers=None):
    """Both payloads of cf and its trace, with and without a tail, are the
    bytes of json.dumps(..., indent=2) of the reference dict."""
    rotations = trace.rotations()
    for tail in ({}, TRANSPILE_TAIL):
        assert canonical_to_json(cf, trace, tail=tail) == json.dumps(
            {**_canonical_to_json_reference(cf, rotations), **tail}, indent=2)
    if layers is None:
        layers = asap_layers(cf.pi8)
    for tail in ({}, OPTIMIZE_TAIL):
        assert canonical_to_json(cf, trace, layers, tail) == json.dumps(
            {**_canonical_to_json_reference(cf, rotations, layers), **tail}, indent=2)


class TestWriterBytes:
    @given(clifford_t_circuits(max_qubits=8, max_gates=60))
    @settings(max_examples=60, deadline=None)
    def test_gate_circuits(self, gc):
        assert_writes_json_dumps(canonicalize(gc), clifford_trace(gc))

    @given(rotation_circuits())
    @settings(max_examples=60, deadline=None)
    def test_rotation_circuits(self, rc):
        assert_writes_json_dumps(push_cliffords(rc),
                                 as_trace(r for r in rc.rotations if r.is_clifford))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_deep_circuits(self, seed):
        # the compile benchmark's size: n = 16, 2000 gates, many repeats
        gc = random_circuit(16, 2000, random.Random(seed))
        cf, trace = canonicalize(gc), clifford_trace(gc)
        assert len(cf.pi8) > 100 and len(trace.order) > 1000
        assert_writes_json_dumps(cf, trace)

    def test_clifford_only(self):
        # empty pi8 and no layers; an empty layer renders as []
        gc = GateCircuit(2, (Gate("h", (0,)), Gate("cz", (0, 1))))
        cf, trace = canonicalize(gc), clifford_trace(gc)
        assert cf.pi8 == () and trace.order
        assert_writes_json_dumps(cf, trace, [])
        assert_writes_json_dumps(cf, trace, [[]])

    def test_empty_trace(self):
        gc = GateCircuit(3, (Gate("t", (0,)), Gate("tdg", (2,))))
        cf, trace = canonicalize(gc), clifford_trace(gc)
        assert trace == Trace((), ()) and len(cf.pi8) == 2
        assert_writes_json_dumps(cf, trace)

    @pytest.mark.parametrize("gates", [(), (Gate("t", (0,)),),
                                       (Gate("h", (0,)), Gate("t", (0,)), Gate("x", (0,)))])
    def test_one_qubit(self, gates):
        gc = GateCircuit(1, gates)
        assert_writes_json_dumps(canonicalize(gc), clifford_trace(gc))
