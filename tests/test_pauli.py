"""Symplectic Pauli algebra against the dense 2x2/4x4/8x8 matrix oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pauliflow.pauli import (
    PauliString,
    anticommutation_rows,
    gf2_rank,
    independent,
    merged_rotation_axis,
    symplectic_vector,
)

from conftest import dense_pauli


def all_paulis(n, max_weight=None):
    for letters in itertools.product("IXYZ", repeat=n):
        p = PauliString.from_label("".join(letters))
        if max_weight is None or p.weight() <= max_weight:
            yield p


def pauli_strings(max_n=3):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.integers(0, 2**n - 1),
            st.integers(0, 2**n - 1),
            st.integers(0, 3),
        ).map(lambda t: PauliString(n, *t))
    )


class TestMultiply:
    def test_x_squared_is_identity(self):
        x = PauliString.from_label("X")
        assert (x * x) == PauliString.identity(1)

    def test_z_times_x_is_i_y(self):
        # frozen from the 2x2 matrix product oracle: Z @ X == i * Y
        z = PauliString.from_label("Z")
        x = PauliString.from_label("X")
        prod = z * x
        assert (prod.x, prod.z, prod.phase) == (1, 1, 1)
        np.testing.assert_allclose(
            dense_pauli(z) @ dense_pauli(x), dense_pauli(prod), atol=1e-14
        )

    def test_disjoint_supports(self):
        a = PauliString.from_label("ZI")
        b = PauliString.from_label("IX")
        assert str(a * b) == "+ZX"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.from_label("Z") * PauliString.from_label("ZZ")

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_against_matrix_oracle(self, n):
        ps = list(all_paulis(n))
        for a in ps:
            for b in ps:
                expected = dense_pauli(a) @ dense_pauli(b)
                np.testing.assert_allclose(
                    expected, dense_pauli(a * b), atol=1e-12
                )

    def test_three_qubit_low_weight_against_oracle(self):
        ps = list(all_paulis(3, max_weight=2))
        for a in ps:
            for b in ps:
                expected = dense_pauli(a) @ dense_pauli(b)
                np.testing.assert_allclose(
                    expected, dense_pauli(a * b), atol=1e-12
                )

    @given(pauli_strings(), pauli_strings(), pauli_strings())
    def test_associative(self, a, b, c):
        n = max(a.n, b.n, c.n)
        a, b, c = (PauliString(n, p.x, p.z, p.phase) for p in (a, b, c))
        assert (a * b) * c == a * (b * c)

    @given(pauli_strings())
    def test_identity_is_neutral(self, p):
        eye = PauliString.identity(p.n)
        assert p * eye == p
        assert eye * p == p


class TestCommutes:
    def test_z_vs_x(self):
        assert not PauliString.from_label("Z").commutes(PauliString.from_label("X"))

    def test_two_anticommuting_positions_cancel(self):
        assert PauliString.from_label("ZZ").commutes(PauliString.from_label("XX"))

    def test_zzi_vs_ixx(self):
        # frozen from the 8x8 commutator oracle
        a = PauliString.from_label("ZZI")
        b = PauliString.from_label("IXX")
        comm = dense_pauli(a) @ dense_pauli(b) - dense_pauli(b) @ dense_pauli(a)
        assert np.abs(comm).max() > 0.5
        assert not a.commutes(b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matrix_commutator(self, n):
        ps = list(all_paulis(n, max_weight=2))
        for a in ps:
            for b in ps:
                comm = dense_pauli(a) @ dense_pauli(b) - dense_pauli(b) @ dense_pauli(a)
                assert a.commutes(b) == (np.abs(comm).max() < 1e-12)


class TestWeight:
    @pytest.mark.parametrize(
        "label,expected", [("III", 0), ("XIZ", 2), ("YY", 2), ("IXYZ", 3)]
    )
    def test_weight(self, label, expected):
        assert PauliString.from_label(label).weight() == expected


class TestMergedRotationAxis:
    def test_z_x_gives_minus_y(self):
        z = PauliString.from_label("Z")
        x = PauliString.from_label("X")
        assert str(merged_rotation_axis(z, x)) == "-Y"

    def test_zz_xi(self):
        p = PauliString.from_label("ZZ")
        q = PauliString.from_label("XI")
        merged = merged_rotation_axis(p, q)
        assert str(merged) == "-YZ"
        np.testing.assert_allclose(
            1j * dense_pauli(p) @ dense_pauli(q), dense_pauli(merged), atol=1e-14
        )

    def test_commuting_inputs_rejected(self):
        z = PauliString.from_label("Z")
        with pytest.raises(ValueError):
            merged_rotation_axis(z, z)

    @given(pauli_strings(max_n=3), pauli_strings(max_n=3))
    def test_hermitian_and_anticommutes_with_both(self, a, b):
        n = max(a.n, b.n)
        p = PauliString(n, a.x, a.z, (a.phase // 2) * 2)
        q = PauliString(n, b.x, b.z, (b.phase // 2) * 2)
        if p.commutes(q):
            return
        merged = merged_rotation_axis(p, q)
        assert merged.is_hermitian()
        assert merged.anticommutes(p)
        assert merged.anticommutes(q)


def brute_force_dependent(paulis) -> bool:
    """Some nonempty subset has trivial symplectic sum (phases ignored)."""
    vecs = [symplectic_vector(p) for p in paulis]
    for r in range(1, len(vecs) + 1):
        for combo in itertools.combinations(vecs, r):
            acc = 0
            for v in combo:
                acc ^= v
            if acc == 0:
                return True
    return False


class TestIndependent:
    def test_repetition_generators(self):
        gens = [PauliString.from_label("ZZI"), PauliString.from_label("IZZ")]
        assert independent(gens)

    def test_duplicate(self):
        zz = PauliString.from_label("ZZ")
        assert not independent([zz, zz])

    def test_product_of_first_two(self):
        gens = [
            PauliString.from_label("ZZI"),
            PauliString.from_label("IZZ"),
            PauliString.from_label("ZIZ"),
        ]
        assert not independent(gens)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
                ).map(lambda t: PauliString(n, t[0], t[1])),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_matches_subset_search(self, paulis):
        assert independent(paulis) == (not brute_force_dependent(paulis))


class TestTextFormat:
    def test_roundtrip(self):
        for label in ("+XIZ", "-YIZ", "+I", "-ZZZZ"):
            assert str(PauliString.from_label(label)) == label

    def test_parse_without_sign(self):
        assert str(PauliString.from_label("XZ")) == "+XZ"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")
        with pytest.raises(ValueError):
            PauliString.from_label("+")

    @given(pauli_strings())
    def test_label_roundtrip_hermitian(self, p):
        h = PauliString(p.n, p.x, p.z, (p.phase // 2) * 2)
        assert PauliString.from_label(str(h)) == h

    @given(pauli_strings(max_n=70))
    def test_label_matches_letters(self, p):
        # whole-string rendering agrees with the per-qubit letters and
        # with the phase prefix, qubit 0 leftmost
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[p.phase]
        letters = "".join(p.letter_at(q) for q in range(p.n))
        assert p.label() == prefix + letters
        if p.is_hermitian():
            assert PauliString.from_label(prefix + letters.lower()) == p
            assert PauliString.from_label(f"  {letters}\n") == p.unsigned()

    @pytest.mark.parametrize(
        "label, bad",
        [("XQ", "'Q'"), ("-x z", "' '"), ("ZZ_", "'_'"), ("XY7Q", "'7'")],
    )
    def test_invalid_letter_named(self, label, bad):
        with pytest.raises(ValueError, match=f"invalid Pauli letter {bad} in"):
            PauliString.from_label(label)


class TestRankHelpers:
    def test_rank_counts_pivots(self):
        assert gf2_rank([0b110, 0b011, 0b101]) == 2
        assert gf2_rank([0b110, 0b011, 0b100]) == 3


def pauli_lists(n):
    """Up to 60 Paulis on n qubits, every phase."""
    return st.lists(
        st.builds(PauliString, st.just(n), st.integers(0, 2**n - 1),
                  st.integers(0, 2**n - 1), st.integers(0, 3)),
        max_size=60,
    )


class TestAnticommutationRows:
    @given(st.one_of(st.integers(1, 80), st.just(200)).flatmap(
        lambda n: st.tuples(pauli_lists(n), pauli_lists(n))))
    def test_matches_pairwise(self, lists):
        ps, qs = lists
        rows = anticommutation_rows(ps, qs)
        assert len(rows) == len(ps)
        for p, row in zip(ps, rows):
            assert row == sum(p.anticommutes(q) << j for j, q in enumerate(qs))

    def test_empty_lists(self):
        z = PauliString.from_label("Z")
        assert anticommutation_rows([], []) == []
        assert anticommutation_rows([], [z]) == []
        assert anticommutation_rows([z], []) == [0]

    @given(st.integers(1, 80), st.integers(1, 80), st.booleans(), st.data())
    def test_mixed_qubit_counts_raise(self, n, m, in_qs, data):
        if n == m:
            m += 1
        ps = data.draw(pauli_lists(n).filter(bool))
        odd = PauliString.identity(m)
        at = data.draw(st.integers(0, len(ps)))
        mixed = ps[:at] + [odd] + ps[at:]
        with pytest.raises(ValueError, match="qubit count mismatch"):
            anticommutation_rows(ps, mixed) if in_qs else anticommutation_rows(mixed, ps)
        with pytest.raises(ValueError, match="qubit count mismatch"):
            anticommutation_rows(ps, [odd]) if in_qs else anticommutation_rows([odd], ps)
