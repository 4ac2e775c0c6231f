"""Stabilizer codes, syndromes, lookup decoding, and Monte Carlo campaigns."""

import copy
import dataclasses
import functools
import itertools
import math
import operator
import pickle
import re
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pauliflow import codes
from pauliflow.codes import (
    DETECTED_UNCORRECTABLE,
    LOGICAL_ERROR,
    SUCCESS,
    UNCORRECTED,
    LookupDecoder,
    NoiseModel,
    build_lookup,
    decode,
    failure_counts,
    monte_carlo,
    repetition_code,
    repetition_failure_rate,
    residual_class,
    rotated_surface_code,
    syndrome,
    validate_code,
    wilson_interval,
    CodeValidation,
    StabilizerCode,
)
from pauliflow.pauli import (
    PauliString,
    anticommutation_rows,
    independent,
    symplectic_vector,
)


def _validate_code_reference(code):
    """validate_code as written before the anticommutation kernel, one
    pairwise `commutes` call per checked pair (kept verbatim)."""
    failures: list[str] = []

    structural = True
    for p in code.generators + code.logical_x + code.logical_z:
        if p.n != code.n or not p.is_hermitian():
            structural = False
            failures.append(f"{p} is not a Hermitian length-{code.n} Pauli")

    commuting = True
    gens = code.generators
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            if not gens[a].commutes(gens[b]):
                commuting = False
                failures.append(f"generators {a} and {b} anticommute")

    indep = independent(list(gens)) if gens else True
    if not indep:
        failures.append("generators are not independent over GF(2)")

    logicals = True
    for label, ops in (("X", code.logical_x), ("Z", code.logical_z)):
        for i, op in enumerate(ops):
            for g_idx, g in enumerate(gens):
                if not op.commutes(g):
                    logicals = False
                    failures.append(
                        f"logical {label}[{i}] anticommutes with generator {g_idx}"
                    )
    for i in range(code.k):
        if not code.logical_x[i].anticommutes(code.logical_z[i]):
            logicals = False
            failures.append(f"logical X[{i}] and Z[{i}] do not anticommute")
        for j in range(code.k):
            if j == i:
                continue
            if not code.logical_x[i].commutes(code.logical_z[j]):
                logicals = False
                failures.append(f"logical X[{i}] and Z[{j}] should commute")
            if not code.logical_x[i].commutes(code.logical_x[j]):
                logicals = False
                failures.append(f"logical X[{i}] and X[{j}] should commute")
            if not code.logical_z[i].commutes(code.logical_z[j]):
                logicals = False
                failures.append(f"logical Z[{i}] and Z[{j}] should commute")

    return CodeValidation(structural, commuting, indep, logicals, failures)


@st.composite
def small_codes(draw):
    """Random same-length codes, k <= 2; mostly Hermitian operators."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, min(2, n)))
    pauli = st.builds(
        PauliString, st.just(n), st.integers(0, 2**n - 1),
        st.integers(0, 2**n - 1), st.sampled_from((0, 2, 0, 2, 1, 3)),
    )
    ops = draw(st.lists(pauli, min_size=n + k, max_size=n + k))
    return StabilizerCode(n, k, tuple(ops[: n - k]), tuple(ops[n - k: n]),
                          tuple(ops[n:]), 1)


def _code(gens, lx, lz):
    labels = [PauliString.from_label(p) for p in gens + lx + lz]
    m, k = len(gens), len(lx)
    return StabilizerCode(labels[0].n, k, tuple(labels[:m]),
                          tuple(labels[m: m + k]), tuple(labels[m + k:]), 2)


# hand-built codes, good and bad; [[4,2,2]] is the k = 2 case
_HAND_BUILT = {
    "rep3": lambda: repetition_code(3),
    "surface3": lambda: rotated_surface_code(3),
    "c422": lambda: _code(["XXXX", "ZZZZ"], ["XXII", "XIXI"], ["ZIZI", "ZZII"]),
    "c422_swapped_z": lambda: _code(["XXXX", "ZZZZ"], ["XXII", "XIXI"],
                                    ["ZZII", "ZIZI"]),
    "c422_anticommuting_x": lambda: _code(["XXXX", "ZZZZ"], ["XXII", "ZIZI"],
                                          ["ZIZI", "ZZII"]),
    "c422_bad_everything": lambda: _code(["XXXX", "ZZZX"], ["XIII", "XIII"],
                                         ["YIII", "ZZII"]),
    "anticommuting_generators": lambda: _code(["XI", "ZI"], [], []),
    "duplicate_generators": lambda: _code(["ZZI", "ZZI"], ["XXX"], ["ZII"]),
    "logical_z_anticommutes": lambda: _code(["ZZI", "IZZ"], ["XXX"], ["IXI"]),
    "non_hermitian": lambda: StabilizerCode(
        3, 1, (PauliString(3, 0, 0b011, 1), PauliString.from_label("IZZ")),
        (PauliString.from_label("XXX"),), (PauliString(3, 0, 1, 3),), 3),
}


def weight_one_errors(n):
    for q in range(n):
        for letter in "XYZ":
            yield PauliString.single(n, q, letter)


class TestValidateCode:
    def test_rep3_passes(self, rep3):
        report = validate_code(rep3)
        assert report.ok, report.failures

    def test_anticommuting_generators_fail(self):
        code = StabilizerCode(
            n=2, k=0,
            generators=(PauliString.from_label("XI"), PauliString.from_label("ZI")),
            logical_x=(), logical_z=(), distance=1,
        )
        report = validate_code(code)
        assert not report.commuting and not report.ok

    def test_duplicate_generator_fails_independence(self):
        zz = PauliString.from_label("ZZI")
        code = StabilizerCode(
            n=3, k=1, generators=(zz, zz),
            logical_x=(PauliString.from_label("XXX"),),
            logical_z=(PauliString.from_label("ZII"),),
            distance=3,
        )
        report = validate_code(code)
        assert not report.independent and not report.ok

    def test_wrong_length_reported_not_raised(self):
        # the algebraic checks have no meaning for a 2-qubit generator of
        # a 3-qubit code; only the structural failure is reported
        zzi, zz = PauliString.from_label("ZZI"), PauliString.from_label("ZZ")
        code = StabilizerCode(3, 1, (zzi, zz), (PauliString.from_label("XXX"),),
                              (PauliString.from_label("ZII"),), 3)
        report = validate_code(code)
        assert report.failures == ["+ZZ is not a Hermitian length-3 Pauli"]
        assert not (report.ok or report.structural or report.commuting
                    or report.independent or report.logicals)
        with pytest.raises(ValueError, match=r"invalid code: \+ZZ is not a "
                           "Hermitian length-3 Pauli"):
            LookupDecoder.from_table(code, build_lookup(repetition_code(3), 1).table, 1)
        # the campaign names it too, for a decoder made without the check
        with pytest.raises(ValueError, match=r"invalid code: \+ZZ is not a "
                           "Hermitian length-3 Pauli"):
            monte_carlo(LookupDecoder(code, {0: 0}, 1), NoiseModel("bitflip", 0.1),
                        1000, seed=1)
        # build_lookup names the same operator, not a bare count mismatch
        with pytest.raises(ValueError, match=r"^invalid code: \+ZZ is not a "
                           r"Hermitian length-3 Pauli$"):
            build_lookup(code, 1)

    @pytest.mark.parametrize("name", sorted(_HAND_BUILT))
    def test_matches_pairwise_reference_hand_built(self, name):
        code = _HAND_BUILT[name]()
        assert validate_code(code) == _validate_code_reference(code)

    def test_hand_built_failures(self):
        assert validate_code(_HAND_BUILT["c422"]()).ok
        assert validate_code(_HAND_BUILT["c422_swapped_z"]()).failures == [
            "logical X[0] and Z[0] do not anticommute",
            "logical X[0] and Z[1] should commute",
            "logical X[1] and Z[1] do not anticommute",
            "logical X[1] and Z[0] should commute",
        ]

    @given(small_codes())
    def test_matches_pairwise_reference_random(self, code):
        assert validate_code(code) == _validate_code_reference(code)


class TestRepetitionCode:
    def test_rep3_generators(self, rep3):
        assert [str(g) for g in rep3.generators] == ["+ZZI", "+IZZ"]
        assert str(rep3.logical_z[0]) == "+ZII"
        assert str(rep3.logical_x[0]) == "+XXX"

    def test_rep5_has_four_generators(self):
        code = repetition_code(5)
        assert code.m == 4
        assert validate_code(code).ok

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            repetition_code(2)


class TestRotatedSurfaceCode:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_counts_and_validity(self, d):
        code = rotated_surface_code(d)
        assert code.n == d * d
        assert code.m == d * d - 1
        x_type = sum(1 for g in code.generators if g.z == 0)
        z_type = sum(1 for g in code.generators if g.x == 0)
        assert x_type == z_type == (d * d - 1) // 2
        report = validate_code(code)
        assert report.ok, report.failures

    def test_every_single_error_detected_d3(self):
        code = rotated_surface_code(3)
        for e in weight_one_errors(9):
            assert any(b for b in syndrome(code, e)), f"{e} is invisible"

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            rotated_surface_code(4)


class TestSyndrome:
    def test_no_error(self, rep3):
        assert syndrome(rep3, PauliString.identity(3)) == (0, 0)

    def test_first_qubit_flip(self, rep3):
        assert syndrome(rep3, PauliString.from_label("XII")) == (1, 0)

    def test_middle_qubit_flip(self, rep3):
        assert syndrome(rep3, PauliString.from_label("IXI")) == (1, 1)

    def test_dimension_check(self, rep3):
        with pytest.raises(ValueError):
            syndrome(rep3, PauliString.from_label("XX"))


def _wide_code():
    """n = 34 with one ZZ check and k = 33: its 67-bit shot words (m + 2k)
    are too wide for a campaign's uint64, yet build_lookup runs the same
    kernel path."""
    n = 34
    zz = PauliString(n, 0, 0b11)
    return StabilizerCode(
        n=n, k=n - 1, generators=(zz,),
        logical_x=tuple(PauliString.single(n, q, "X") for q in range(1, n)),
        logical_z=tuple(PauliString.single(n, q, "Z") for q in range(1, n)),
        distance=1,
    )


def _errors_by_weight(n: int, max_weight: int):
    """Pauli errors of weight 0..max_weight, deterministic minimum-weight-first
    order: weight, then qubit subset in index order, then X < Y < Z letters."""
    yield PauliString.identity(n)
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            # letters X < Y < Z as (x, z) bits
            for letters in itertools.product(((1, 0), (1, 1), (0, 1)), repeat=w):
                x = z = 0
                for q, (xb, zb) in zip(support, letters):
                    x |= xb << q
                    z |= zb << q
                yield PauliString(n, x, z)


_LOOKUP_CODES = {
    "rep3": lambda: repetition_code(3),
    "rep5": lambda: repetition_code(5),
    "surface3": lambda: rotated_surface_code(3),
    "surface5": lambda: rotated_surface_code(5),
    "wide": _wide_code,
}


class TestBuildLookup:
    def test_rep3_reproduces_parity_table(self, rep3):
        dec = build_lookup(rep3, max_weight=1)
        expected = {
            (0, 0): "+III",
            (1, 0): "+XII",
            (1, 1): "+IXI",
            (0, 1): "+IIX",
        }
        assert {s: str(c) for s, c in dec.table.items()} == expected

    def test_zero_weight_only_identity(self, rep3):
        dec = build_lookup(rep3, max_weight=0)
        assert list(dec.table) == [(0, 0)]

    def test_surface3_weight1_syndromes(self):
        code = rotated_surface_code(3)
        dec = build_lookup(code, max_weight=1)
        enumerated = {syndrome(code, e) for e in weight_one_errors(9)}
        assert set(dec.table) == enumerated | {(0,) * 8}
        # frozen from this enumeration: some single-qubit errors collide
        # (e.g. X on qubits 1 and 2 touch the same Z checks), so fewer
        # than 27 distinct syndromes appear
        assert len(enumerated) == 23

    def test_every_entry_reproduces_its_syndrome(self):
        for code in (repetition_code(3), rotated_surface_code(3)):
            dec = build_lookup(code, max_weight=2)
            for s, corr in dec.table.items():
                assert syndrome(code, corr) == s

    @pytest.mark.parametrize(
        "name, max_weight",
        [(name, w) for name in ["rep3", "rep5", "surface3", "surface5", "wide"]
         for w in (0, 1, 2)] + [("surface3", 3), ("surface5", 3)],
    )
    def test_matches_scalar_syndrome_table(self, name, max_weight):
        # the enumeration order build_lookup had when it built one
        # PauliString per error (_errors_by_weight, kept verbatim)
        code = _LOOKUP_CODES[name]()
        expected = {}
        for error in _errors_by_weight(code.n, max_weight):
            expected.setdefault(syndrome(code, error), error)
        table = build_lookup(code, max_weight).table
        # same keys, same corrections, same first-seen order
        assert list(table.items()) == list(expected.items())

    def test_guard(self):
        # keys are m bits of a uint64: surface7 (m = 48) builds, surface9
        # (m = 80) is refused
        assert len(build_lookup(rotated_surface_code(7), max_weight=1).errors) == 136
        with pytest.raises(ValueError, match=r"packed in 64 bits, so need m <= 64 "
                           r"generators, got m = 80"):
            build_lookup(rotated_surface_code(9), max_weight=1)

    def test_error_count_guard(self, monkeypatch):
        # surface5 at weight 5 would enumerate 14 000 116 errors, 13 times
        # weight 4's, whose table holds 175 MiB after about 2 s; the count
        # is checked before the letter words that start the enumeration
        # are built
        def reached(code):
            raise RuntimeError("enumeration started")

        monkeypatch.setattr(codes, "_letter_words", reached)
        code = rotated_surface_code(5)
        with pytest.raises(
            ValueError, match="14000116 errors, over the limit of 4194304"
        ):
            build_lookup(code, max_weight=5)
        # weight 4, 1 089 526 errors, is under the limit
        with pytest.raises(RuntimeError, match="enumeration started"):
            build_lookup(code, max_weight=4)

    def test_no_per_error_objects_kept(self):
        # the table's own PauliStrings and key tuples are most of the
        # peak; one PauliString per enumerated error peaked at 2.5 times
        # the table
        code = rotated_surface_code(5)
        build_lookup(code, 1)  # warm up
        tracemalloc.start()
        try:
            dec = build_lookup(code, 3)
            dec.table  # built from the kept integers when first read
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dec.table) == 38252
        assert peak < 1.5 * held, (held, peak)

    def test_weight_above_n_enumerates_every_error_once(self, rep3):
        assert build_lookup(rep3, 10**9).table == build_lookup(rep3, 3).table


class TestDecode:
    def test_zero_syndrome(self, rep3):
        dec = build_lookup(rep3, 1)
        assert str(decode(dec, (0, 0))) == "+III"

    def test_third_qubit(self, rep3):
        dec = build_lookup(rep3, 1)
        assert str(decode(dec, (0, 1))) == "+IIX"

    def test_unreachable_syndrome_is_none(self):
        code = rotated_surface_code(3)
        dec = build_lookup(code, max_weight=1)
        all_syndromes = set(itertools.product((0, 1), repeat=8))
        missing = sorted(all_syndromes - set(dec.table))
        assert missing, "weight-1 errors should not cover all 256 syndromes"
        assert decode(dec, missing[0]) is None

    def test_length_check(self, rep3):
        dec = build_lookup(rep3, 1)
        with pytest.raises(ValueError):
            decode(dec, (0, 0, 0))

    def test_answers_as_the_table(self):
        # hits, misses, and bits that compare as the table's keys do: True
        # and 1.0 find 1, and a bit equal to neither 0 nor 1 finds nothing
        dec = build_lookup(rotated_surface_code(3), 1)
        probes = list(itertools.product((0, 1), repeat=8))
        probes += [tuple(map(float, s)) for s in probes[::7]]
        probes += [tuple(map(bool, s)) for s in probes[::5]]
        probes += [s[:3] + (bad,) + s[4:] for s in probes[::9]
                   for bad in (2, -1, 0.5, "1", None, float("nan"))]
        probes += [list(s) for s in probes[::11]] + [np.array(s) for s in probes[::13]]
        got = [decode(dec, s) for s in probes]
        assert "table" not in vars(dec)
        assert got == [dec.table.get(tuple(s)) for s in probes]
        assert got.count(None) not in (0, len(got))

    def test_no_table_built(self):
        # the tuple-keyed view of a weight-4 surface5 table, built to answer
        # one syndrome, took 1.19 s and 193 MB
        dec = build_lookup(rotated_surface_code(5), 4)
        x0 = PauliString.single(25, 0, "X")
        s = syndrome(dec.code, x0)
        tracemalloc.start()
        try:
            fix = decode(dec, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "table" not in vars(dec)
        assert peak < 1 << 20, peak
        assert fix == x0


class TestResidualClass:
    def test_exact_correction(self, rep3):
        e = PauliString.from_label("XII")
        assert residual_class(rep3, e, e) == SUCCESS

    def test_logical_flip(self, rep3):
        e = PauliString.from_label("XXX")
        corr = PauliString.identity(3)
        assert residual_class(rep3, e, corr) == LOGICAL_ERROR

    def test_uncorrected(self, rep3):
        e = PauliString.from_label("XII")
        assert residual_class(rep3, e, PauliString.identity(3)) == UNCORRECTED

    def test_stabilizer_residual_is_success(self, rep3):
        # correction differs from the error by a stabilizer
        e = PauliString.from_label("ZII")
        corr = PauliString.from_label("IZI")  # corr*e = ZZI, a generator
        assert residual_class(rep3, e, corr) == SUCCESS


class TestExhaustiveCorrection:
    def test_rep3_weight1(self, rep3):
        dec = build_lookup(rep3, 1)
        for q in range(3):
            e = PauliString.single(3, q, "X")
            corr = decode(dec, syndrome(rep3, e))
            assert residual_class(rep3, e, corr) == SUCCESS

    def test_rep5_all_weight_le2_bitflips(self):
        code = repetition_code(5)
        dec = build_lookup(code, 2)
        patterns = [
            x for w in (0, 1, 2) for x in itertools.combinations(range(5), w)
        ]
        for support in patterns:
            e = PauliString(5, sum(1 << q for q in support), 0)
            corr = decode(dec, syndrome(code, e))
            assert corr is not None
            assert residual_class(code, e, corr) == SUCCESS

    def test_surface3_all_27_single_errors(self):
        code = rotated_surface_code(3)
        dec = build_lookup(code, 1)
        for e in weight_one_errors(9):
            corr = decode(dec, syndrome(code, e))
            assert corr is not None
            assert residual_class(code, e, corr) == SUCCESS, str(e)


class TestWilson:
    def test_interval_brackets_mle(self):
        lo, hi = wilson_interval(28, 1000)
        assert lo < 0.028 < hi
        assert 0 <= lo < hi <= 1


class TestMonteCarlo:
    def test_zero_noise_exact(self, rep3):
        dec = build_lookup(rep3, 1)
        result = monte_carlo(dec, NoiseModel("bitflip", 0.0), 1000, seed=1)
        assert result.p_logical_estimate == 0.0
        assert result.counts[SUCCESS] == 1000

    def test_bitflip_matches_analytic(self, rep3):
        dec = build_lookup(rep3, 1)
        p = 0.1
        result = monte_carlo(dec, NoiseModel("bitflip", p), 200_000, seed=7)
        analytic = repetition_failure_rate(3, p)
        assert analytic == pytest.approx(3 * p**2 - 2 * p**3)
        sigma = np.sqrt(analytic * (1 - analytic) / 200_000)
        assert abs(result.p_logical_estimate - analytic) <= 3 * sigma

    def test_depolarizing_runs_and_classifies(self, rep3):
        dec = build_lookup(rep3, 1)
        result = monte_carlo(
            dec, NoiseModel("depolarizing", 0.05), 50_000, seed=3
        )
        total = sum(result.counts.values())
        assert total == 50_000
        # Z components are invisible to this code, so failures exist
        assert result.counts[LOGICAL_ERROR] > 0

    def test_worker_count_does_not_change_counts(self, rep3):
        dec = build_lookup(rep3, 1)
        noise = NoiseModel("bitflip", 0.08)
        baseline = monte_carlo(dec, noise, 150_000, seed=11, workers=1)
        for workers in (2, 8):
            again = monte_carlo(dec, noise, 150_000, seed=11, workers=workers)
            assert again.counts == baseline.counts

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, rep3, workers):
        dec = build_lookup(rep3, 1)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            monte_carlo(
                dec, NoiseModel("bitflip", 0.08), 1000, seed=1,
                workers=workers,
            )

    def test_seed_changes_samples(self, rep3):
        dec = build_lookup(rep3, 1)
        noise = NoiseModel("bitflip", 0.08)
        a = monte_carlo(dec, noise, 50_000, seed=1)
        b = monte_carlo(dec, noise, 50_000, seed=2)
        assert a.counts != b.counts

    def test_depolarizing_matches_exact_enumeration(self, rep3):
        # Independent closed form: with Z-type parity checks only, the
        # decoder reproduces any weight <= 1 X-component exactly, and the
        # untouched Z-component must land in the generator span (even
        # parity).  Enumerate all 4^3 per-qubit letter combinations.
        p = 0.1
        letters = {"I": (0, 0, 1 - p), "X": (1, 0, p / 3),
                   "Y": (1, 1, p / 3), "Z": (0, 1, p / 3)}
        dec = build_lookup(rep3, 1)
        analytic_success = 0.0
        for combo in itertools.product("IXYZ", repeat=3):
            xs = [letters[c][0] for c in combo]
            zs = [letters[c][1] for c in combo]
            prob = 1.0
            for c in combo:
                prob *= letters[c][2]
            derived_ok = sum(xs) <= 1 and sum(zs) % 2 == 0
            if derived_ok:
                analytic_success += prob
            # the scalar decode path must agree with the derived rule
            e = PauliString(
                3,
                sum(b << q for q, b in enumerate(xs)),
                sum(b << q for q, b in enumerate(zs)),
            )
            corr = decode(dec, syndrome(rep3, e))
            scalar_ok = corr is not None and residual_class(
                rep3, e, corr
            ) == SUCCESS
            assert scalar_ok == derived_ok, str(e)
        analytic_failure = 1.0 - analytic_success
        shots = 200_000
        result = monte_carlo(
            dec, NoiseModel("depolarizing", p), shots, seed=17
        )
        sigma = np.sqrt(analytic_failure * (1 - analytic_failure) / shots)
        assert abs(result.p_logical_estimate - analytic_failure) <= 3 * sigma

    def test_vectorized_classification_matches_scalar(self):
        # cross-check the numpy path against residual_class on every
        # weight <= 2 error of the surface-3 code
        code = rotated_surface_code(3)
        dec = build_lookup(code, 1)
        for e in weight_one_errors(9):
            corr = decode(dec, syndrome(code, e))
            assert residual_class(code, e, corr) == SUCCESS
        # table misses count as detected failures in the estimate
        noise = NoiseModel("depolarizing", 0.15)
        result = monte_carlo(dec, noise, 20_000, seed=5)
        assert (
            result.counts[SUCCESS]
            + result.counts[LOGICAL_ERROR]
            + result.counts[DETECTED_UNCORRECTABLE]
            == 20_000
        )
        assert result.counts[DETECTED_UNCORRECTABLE] > 0


class TestCodeJson:
    def test_export(self, rep3):
        obj = rep3.to_json()
        assert obj["generators"] == ["+ZZI", "+IZZ"]
        assert obj["n"] == 3 and obj["k"] == 1


class TestMonteCarloGuards:
    def test_invalid_code_rejected_naming_first_failure(self, rep3):
        # the logical class is read off the logical operators, so a code
        # whose logical Z anticommutes with a generator must be refused
        bad = StabilizerCode(
            n=3, k=1, generators=rep3.generators,
            logical_x=rep3.logical_x,
            logical_z=(PauliString.from_label("IXI"),),
            distance=3,
        )
        dec = build_lookup(bad, 1)
        with pytest.raises(
            ValueError,
            match=r"invalid code: logical Z\[0\] anticommutes with generator 0",
        ):
            monte_carlo(dec, NoiseModel("bitflip", 0.1), 1000, seed=1)

    def test_decoder_code_validated(self, rep3):
        # the campaign has one code, the decoder's: a logical X equal to
        # its logical Z is refused, naming that failure
        zii = PauliString.from_label("ZII")
        bad = StabilizerCode(n=3, k=1, generators=rep3.generators,
                             logical_x=(zii,), logical_z=(zii,), distance=3)
        dec = build_lookup(bad, 1)
        with pytest.raises(ValueError, match=r"invalid code: logical X\[0\] and "
                           r"Z\[0\] do not anticommute"):
            monte_carlo(dec, NoiseModel("bitflip", 0.1), 1000, seed=1)

    def test_campaign_samples_the_decoders_code(self):
        # a rep5 decoder gives rep5's analytic rate, not rep3's
        p, shots = 0.1, 20_000
        result = monte_carlo(build_lookup(repetition_code(5), 2),
                             NoiseModel("bitflip", p), shots, seed=1)
        analytic = repetition_failure_rate(5, p)
        sigma = np.sqrt(analytic * (1 - analytic) / shots)
        assert abs(result.p_logical_estimate - analytic) <= 4 * sigma
        assert result.p_logical_estimate < repetition_failure_rate(3, p) / 2

    def test_code_without_generators(self):
        # [[1, 1, 1]]: every error is a logical one, and the one key is ()
        x, z = PauliString.from_label("X"), PauliString.from_label("Z")
        dec = build_lookup(StabilizerCode(1, 1, (), (x,), (z,), 1), 1)
        assert dec.table == {(): PauliString.identity(1)}
        p, shots = 0.3, 20_000
        result = monte_carlo(dec, NoiseModel("depolarizing", p), shots, seed=1)
        assert result.counts[DETECTED_UNCORRECTABLE] == 0
        assert abs(result.p_logical_estimate - p) <= 5 * math.sqrt(p * (1 - p) / shots)
        assert failure_counts(dec, "depolarizing", 1).p_logical_bounds(p) == (p, p)

    def test_shot_word_over_64_bits_rejected(self):
        # a shot word is m + 2k bits: rep33's 34 bits run, rep65's 66 do not
        code = repetition_code(33)
        x0 = PauliString.single(33, 0, "X")
        dec = LookupDecoder.from_table(
            code, {(0,) * code.m: PauliString.identity(33), syndrome(code, x0): x0}, 1)
        assert decode(dec, syndrome(code, x0)) == x0
        assert decode(dec, (0,) * code.m) == PauliString.identity(33)
        result = monte_carlo(dec, NoiseModel("bitflip", 0.01), 1000, seed=1)
        assert result.counts == {SUCCESS: 725, LOGICAL_ERROR: 0, DETECTED_UNCORRECTABLE: 275}
        code = repetition_code(65)
        dec = LookupDecoder.from_table(code, {(0,) * code.m: PauliString.identity(65)}, 0)
        assert decode(dec, (0,) * code.m) == PauliString.identity(65)
        message = r"packed in 64 bits, so monte_carlo needs m \+ 2k <= 64, got m \+ 2k = 66"
        with pytest.raises(ValueError, match=message):
            monte_carlo(dec, NoiseModel("bitflip", 0.1), 1000, seed=1)
        with pytest.raises(ValueError, match=message):
            failure_counts(dec, "bitflip", 1)

    def test_more_than_64_generators_rejected(self):
        # keys are packed in 64 bits: unrefused, this one's bit 65 raised
        # numpy's OverflowError
        code = repetition_code(67)
        x66 = PauliString.single(67, 66, "X")
        table = {syndrome(code, x66): x66}
        with pytest.raises(ValueError, match=r"packed in 64 bits, so need m <= 64 "
                           r"generators, got m = 66"):
            LookupDecoder.from_table(code, table, 0)


class TestMalformedTable:
    """A hand-built table the campaign would misread is refused, naming
    its first bad key or correction."""

    @staticmethod
    def _run(rep3, table):
        dec = LookupDecoder.from_table(rep3, table, 1)
        return monte_carlo(dec, NoiseModel("bitflip", 0.1), 100, seed=1)

    def test_key_of_wrong_length(self, rep3):
        # was read as the 2-bit zero syndrome: 28 of 100 shots detected
        with pytest.raises(ValueError, match=r"key \(0,\) is not a 2-bit syndrome"):
            self._run(rep3, {(0,): PauliString.identity(3)})

    def test_key_not_bits(self, rep3):
        # was packed as (1, 0), a key `decode` never finds
        table = dict(build_lookup(rep3, 1).table)
        table[(2, 0)] = table.pop((1, 0))
        with pytest.raises(ValueError, match=r"key \(2, 0\) is not a 2-bit syndrome"):
            self._run(rep3, table)

    def test_correction_of_wrong_length(self, rep3):
        # was applied as a 3-qubit operator; residual_class refuses it
        table = dict(build_lookup(rep3, 1).table)
        table[(1, 0)] = PauliString.from_label("XI")
        with pytest.raises(ValueError, match=r"correction \+XI for key \(1, 0\) "
                           "is not a 3-qubit Pauli"):
            self._run(rep3, table)

    def test_empty_table(self, rep3):
        # was numpy's AxisError from the key packing
        with pytest.raises(ValueError, match="decoder table is empty"):
            self._run(rep3, {})

    def test_code_checks_keep_precedence(self):
        code = repetition_code(65)
        with pytest.raises(ValueError, match=r"m \+ 2k <= 64, got m \+ 2k = 66"):
            monte_carlo(LookupDecoder.from_table(code, {}, 0), NoiseModel("bitflip", 0.1),
                        100, seed=1)

    def test_correction_that_does_not_clear_its_key(self, rep3):
        # every syndrome "corrected" by the identity: the campaign counted
        # 89 946 successes and 10 054 logical errors of 100 000 shots at
        # p = 0.05, though such a residual is uncorrected
        table = {key: PauliString.identity(3) for key in build_lookup(rep3, 1).table}
        assert residual_class(rep3, PauliString.from_label("XII"),
                              table[(1, 0)]) == UNCORRECTED
        with pytest.raises(ValueError, match=r"correction \+III for key \(1, 0\) has "
                           r"syndrome \(0, 0\), so it does not clear its key"):
            self._run(rep3, table)

    def test_swapped_corrections(self, rep3):
        # each correction clears the other's key
        table = dict(build_lookup(rep3, 1).table)
        table[(1, 0)], table[(0, 1)] = table[(0, 1)], table[(1, 0)]
        with pytest.raises(ValueError, match=r"correction \+IIX for key \(1, 0\) has "
                           r"syndrome \(0, 1\)"):
            self._run(rep3, table)

    def test_bad_key_past_the_first_chunk(self, monkeypatch):
        # keys are compared a shard's worth at a time: chunks of 3 here
        monkeypatch.setattr(codes, "_SHARD_SHOTS", 3)
        code, dec = _code_and_decoder("rep5")
        table = dict(dec.table)
        keys = list(table)
        table[keys[10]], table[keys[11]] = table[keys[11]], table[keys[10]]
        with pytest.raises(ValueError, match=rf"for key {re.escape(repr(keys[10]))} has "
                           rf"syndrome {re.escape(repr(keys[11]))}"):
            monte_carlo(LookupDecoder.from_table(code, table, 2), NoiseModel("bitflip", 0.1),
                        100, 1)

    def test_bits_compare_as_decode_looks_them_up(self, rep3):
        # True and 1.0 find the key (1, 0), so the table is the built one
        built = build_lookup(rep3, 1).table
        table = {tuple(1.0 if b else False for b in key): fix for key, fix in built.items()}
        assert self._run(rep3, table) == self._run(rep3, built)

    def test_failure_counts_checks_the_decoder(self, rep3):
        table = {key: PauliString.identity(3) for key in build_lookup(rep3, 1).table}
        with pytest.raises(ValueError, match=r"key \(1, 0\) has syndrome \(0, 0\)"):
            failure_counts(LookupDecoder.from_table(rep3, table, 1), "bitflip", 3)

    @pytest.mark.parametrize("name", ["rep3", "rep5", "surface3", "surface5", "odd"])
    def test_decoder_arrays_match_reference(self, name):
        # keys packed from the tuple keys, parities from one
        # anticommutation_rows call per correction, as before the one pass
        code, dec = _code_and_decoder("rep5" if name == "odd" else name)
        table = dict(dec.table)
        if name == "odd":  # the zero syndrome "corrected" by the logical X
            table[(0,) * code.m] = code.logical_x[0]
        dec = LookupDecoder.from_table(code, table, dec.max_weight)
        keys = _pack(np.array(list(table), dtype=np.uint8))
        fix = np.array(anticommutation_rows(list(table.values()),
                                            code.logical_x + code.logical_z), dtype=np.uint64)
        order = np.argsort(keys)
        n, m, got_keys, got_fix, word = codes._decoder_arrays(dec)
        assert (n, m) == (code.n, code.m)
        assert got_keys.tolist() == keys[order].tolist()
        assert got_fix.tolist() == fix[order].tolist()
        assert word.tolist() == codes._letter_words(code)


class TestBuiltDecoderWords:
    """A campaign reads build_lookup's packed errors as it reads those of
    a checked hand-built table, and no decoder can be changed after."""

    @pytest.mark.parametrize("name, max_weight", [
        *((name, w) for name in ("rep3", "rep5", "surface3", "surface5") for w in range(4)),
        ("one", 0), ("one", 1)])
    def test_arrays_match_the_checked_table(self, monkeypatch, name, max_weight):
        x, z = PauliString.from_label("X"), PauliString.from_label("Z")
        code = (StabilizerCode(1, 1, (), (x,), (z,), 1) if name == "one"
                else _BUILDERS[name][0]())
        dec = build_lookup(code, max_weight)
        with monkeypatch.context() as patch:
            patch.setattr(codes, "_syndrome_keys", None)  # the packed errors need no keys
            got = codes._decoder_arrays(dec)
        checked = codes._decoder_arrays(LookupDecoder.from_table(code, dict(dec.table),
                                                                 max_weight))
        assert got[:2] == checked[:2]
        for have, want in zip(got[2:], checked[2:]):
            assert have.dtype == want.dtype and have.tolist() == want.tolist()

    def test_campaigns_need_no_table(self, monkeypatch):
        code, dec = _code_and_decoder("surface5")
        noise = NoiseModel("depolarizing", 0.01)
        checked = LookupDecoder.from_table(code, dict(dec.table), 2)
        want = (monte_carlo(checked, noise, 70_000, 3),
                failure_counts(checked, "depolarizing", 3))

        def reached(*args):
            raise AssertionError("the table was checked")

        monkeypatch.setattr(codes, "_syndrome_keys", reached)
        fresh = build_lookup(code, 2)
        assert monte_carlo(fresh, noise, 70_000, 3) == want[0]
        assert failure_counts(fresh, "depolarizing", 3) == want[1]

    def test_table_cannot_be_edited(self, rep3):
        dec = build_lookup(rep3, 1)
        with pytest.raises(TypeError):
            dec.table[(1, 0)] = dec.table[(0, 1)]
        with pytest.raises(TypeError):
            LookupDecoder.from_table(rep3, dict(dec.table), 1).table[(1, 0)] = None
        for made in (dec, LookupDecoder.from_table(rep3, dict(dec.table), 1)):
            with pytest.raises(TypeError):
                made.errors[0] = 0
        assert decode(dec, (1, 0)) == PauliString.from_label("XII")

    def test_table_cannot_be_assigned(self, rep3):
        dec = build_lookup(rep3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.table = {(1, 0): PauliString.identity(3)}
        assert len(dec.table) == 4

    def test_code_cannot_be_replaced(self, rep3):
        dec = build_lookup(rep3, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.code = repetition_code(5)
        assert dec.code == rep3

    def test_decoder_reads_as_built(self, rep3):
        dec = build_lookup(rep3, 1)
        assert dec == LookupDecoder.from_table(rep3, dict(build_lookup(rep3, 1).table), 1)
        assert repr(dec) == repr(LookupDecoder.from_table(rep3, dict(dec.table), 1))
        # table and campaign both read a syndrome from its error's low m
        # bits, so a trusted errors dict's keys cannot make them disagree
        shifted = LookupDecoder(rep3, {s + 1: e for s, e in dec.errors.items()}, 1)
        assert shifted.table == dec.table
        assert (monte_carlo(shifted, NoiseModel("bitflip", 0.2), 1000, seed=1)
                == monte_carlo(dec, NoiseModel("bitflip", 0.2), 1000, seed=1))

    @pytest.mark.parametrize("clone", [lambda dec: pickle.loads(pickle.dumps(dec)),
                                      copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_decoder_copies(self, rep3, clone):
        for read in (False, True):
            dec = build_lookup(rep3, 1)
            if read:  # a table already built is rebuilt by the copy
                dec.table
            again = clone(dec)
            assert again == dec and again.table == dec.table
            with pytest.raises(TypeError):
                again.errors[0] = 0


_BUILDERS = {
    "rep3": (lambda: repetition_code(3), 1),
    "rep5": (lambda: repetition_code(5), 2),
    "surface3": (lambda: rotated_surface_code(3), 1),
    "surface5": (lambda: rotated_surface_code(5), 2),
}


@functools.cache
def _code_and_decoder(name):
    builder, max_weight = _BUILDERS[name]
    code = builder()
    return code, build_lookup(code, max_weight)


def one_draw(seed, shard, count, n, noise):
    """A shard's errors as the sampler must draw them, from one draw of
    each of its two child streams: (shot, qubit, letter) arrays in
    increasing (shot, qubit) order.  Every gap the shard could need (at
    most count * n) is drawn at once; a gap past the shard's end is cut
    to end it, so the running sums stay in int64."""
    gaps, letters = (np.random.default_rng(s)
                     for s in np.random.SeedSequence([seed, shard]).spawn(2))
    trials = count * n
    if noise.p == 0:
        position = np.zeros(0, dtype=np.int64)
    else:
        position = np.cumsum(np.minimum(gaps.geometric(noise.p, trials), trials + 1)) - 1
        position = position[position < trials]
    shot, qubit = np.divmod(position, n)
    if noise.kind == "bitflip":
        return shot, qubit, np.zeros_like(qubit)
    return shot, qubit, np.floor(letters.random(len(position)) * 3).astype(np.intp)


def draw_errors(seed, shard, count, n, noise):
    """One PauliString per shot of the shard, from `one_draw`."""
    xs, zs = [0] * count, [0] * count
    for shot, qubit, letter in zip(*(a.tolist() for a in one_draw(seed, shard, count, n, noise))):
        xs[shot] |= (letter < 2) << qubit  # letters X and Y
        zs[shot] |= (letter > 0) << qubit  # letters Y and Z
    return [PauliString(n, x, z) for x, z in zip(xs, zs)]


def sampled_errors(seed, shard, count, n, noise):
    """`codes._sample_errors` of the shard, its blocks joined: (shot,
    qubit, letter) arrays with shot indices counted over the shard."""
    parts, start = [], 0
    for block, shot, qubit, letter in codes._sample_errors(
            np.random.SeedSequence([seed, shard]), count, n, noise):
        parts.append((shot + start, qubit, letter))
        start += block
    assert start == count
    return tuple(np.concatenate(column) for column in zip(*parts))


def _uniform_sample_errors(rng, count: int, n: int, noise: NoiseModel):
    """The uniform sampler, the statistical reference for the sparse one:
    every shot draws u = rng.random((count, n));
    qubit q takes X from u < p (bitflip), or X from u < p/3, Y from
    p/3 <= u < 2p/3 and Z from 2p/3 <= u < p (depolarizing).  Returns
    shot index, qubit and letter of each non-identity draw, in
    increasing (shot, qubit) order."""
    u = rng.random((count, n))
    p = noise.p
    flat = np.flatnonzero(u < p)
    shot, qubit = np.divmod(flat, n)
    if noise.kind == "bitflip":
        return shot, qubit, np.zeros_like(qubit)
    v = np.take(u, flat)
    return shot, qubit, (v >= p / 3).astype(np.intp) + (v >= 2 * p / 3)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a (count, w) 0/1 array, w <= 64, as uint64: column b is bit b."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")[:, 0]


def _parities(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Entry (r, j) is the parity of rows[r] & masks[j]; with the mask
    (z << n) | x of a Pauli, 1 iff row r anticommutes with it."""
    return np.bitwise_count(rows[:, None] & masks) & 1


def _masks(n, paulis):
    """One mask (z << n) | x per Pauli, as uint64."""
    return np.array([(p.z << n) | p.x for p in paulis], dtype=np.uint64)


def _dense_sample_errors(rng, count: int, n: int, noise: NoiseModel) -> np.ndarray:
    """One symplectic_vector row (x << n) | z per shot of the uniform
    reference, as uint64."""
    if noise.p == 0:
        return np.zeros(count, dtype=np.uint64)
    u = rng.random((count, n))
    p = noise.p
    if noise.kind == "bitflip":
        return _pack(u < p) << n
    x = _pack(u < 2 * p / 3)  # letters X and Y
    z = _pack((u >= p / 3) & (u < p))  # letters Y and Z
    return x << n | z


def _rows_from_letters(n, shot, qubit, letter):
    """The shots that drew an error, in order, and their symplectic_vector
    rows (x << n) | z, rebuilt from (shot, qubit, letter) arrays."""
    bit = np.uint64(1) << qubit.astype(np.uint64)
    x = np.where(letter < 2, bit, 0).astype(np.uint64)  # letters X and Y
    z = np.where(letter > 0, bit, 0).astype(np.uint64)  # letters Y and Z
    starts = np.flatnonzero(np.diff(shot, prepend=-1))
    return shot[starts], np.bitwise_or.reduceat(x << np.uint64(n) | z, starts)


def _dense_shard_reference(dec, args):
    """The shard of `args` with every shot, the identity ones included,
    built as a symplectic_vector row from `one_draw`, looked up and
    classified against generator and logical masks, keys and correction
    rows rebuilt from dec itself."""
    (_, noise, count, seed, shard_index) = args
    code = dec.code
    n = code.n
    gen_masks = _masks(n, code.generators)
    logical_masks = _masks(n, code.logical_x + code.logical_z)
    keys = _pack(np.array(list(dec.table), dtype=np.uint8))
    corrections = np.array([symplectic_vector(c) for c in dec.table.values()], np.uint64)
    order = np.argsort(keys)
    keys, corrections = keys[order], corrections[order]
    shots, rows = _rows_from_letters(n, *one_draw(seed, shard_index, count, n, noise))
    errors = np.zeros(count, dtype=np.uint64)
    errors[shots] = rows
    synd = _pack(_parities(errors, gen_masks))
    pos = np.minimum(np.searchsorted(keys, synd), len(keys) - 1)
    hit = keys[pos] == synd
    # a hit leaves a residual with zero syndrome; it lies in the generator
    # span iff it also commutes with every logical operator
    residual = errors[hit] ^ corrections[pos[hit]]
    logical = int(_parities(residual, logical_masks).any(axis=1).sum())
    hits = int(hit.sum())
    return {
        SUCCESS: hits - logical,
        LOGICAL_ERROR: logical,
        DETECTED_UNCORRECTABLE: count - hits,
    }


# (success, logical_error, detected_uncorrectable) at 2^17 shots from
# the sparse sampler, workers 1 and 3 alike; each lies within z = 5 of
# the exact rate of failure_counts (TestFailureCounts)
GOLDEN_COUNTS = [
    ("surface5", "depolarizing", 0.01, 1, (130832, 3, 237)),
    ("surface5", "depolarizing", 0.01, 2, (130818, 10, 244)),
    ("surface5", "depolarizing", 0.01, 3, (130839, 6, 227)),
    ("surface5", "bitflip", 0.05, 1, (115648, 1731, 13693)),
    ("surface5", "bitflip", 0.05, 2, (115894, 1609, 13569)),
    ("surface5", "bitflip", 0.05, 3, (115814, 1641, 13617)),
    ("surface3", "depolarizing", 0.15, 1, (81322, 7332, 42418)),
    ("surface3", "depolarizing", 0.15, 2, (81404, 7302, 42366)),
    ("surface3", "depolarizing", 0.15, 3, (81766, 7260, 42046)),
    ("rep5", "bitflip", 0.1, 1, (129951, 1121, 0)),
    ("rep5", "bitflip", 0.1, 2, (129888, 1184, 0)),
    ("rep5", "bitflip", 0.1, 3, (129958, 1114, 0)),
    ("rep3", "depolarizing", 0.1, 1, (107244, 23828, 0)),
    ("rep3", "depolarizing", 0.1, 2, (107536, 23536, 0)),
    ("rep3", "depolarizing", 0.1, 3, (107268, 23804, 0)),
]

# the same cases as recorded with the uniform sampler, which drew every
# shot's n uniforms; the exact rate must bracket these too
UNIFORM_GOLDEN_COUNTS = [
    ("surface5", "depolarizing", 0.01, 1, (130810, 1, 261)),
    ("surface5", "depolarizing", 0.01, 2, (130837, 1, 234)),
    ("surface5", "depolarizing", 0.01, 3, (130847, 5, 220)),
    ("surface5", "bitflip", 0.05, 1, (115712, 1676, 13684)),
    ("surface5", "bitflip", 0.05, 2, (115616, 1667, 13789)),
    ("surface5", "bitflip", 0.05, 3, (115956, 1692, 13424)),
    ("surface3", "depolarizing", 0.15, 1, (81801, 7299, 41972)),
    ("surface3", "depolarizing", 0.15, 2, (81713, 7231, 42128)),
    ("surface3", "depolarizing", 0.15, 3, (81809, 7346, 41917)),
    ("rep5", "bitflip", 0.1, 1, (129984, 1088, 0)),
    ("rep5", "bitflip", 0.1, 2, (129947, 1125, 0)),
    ("rep5", "bitflip", 0.1, 3, (129947, 1125, 0)),
    ("rep3", "depolarizing", 0.1, 1, (107452, 23620, 0)),
    ("rep3", "depolarizing", 0.1, 2, (107553, 23519, 0)),
    ("rep3", "depolarizing", 0.1, 3, (107362, 23710, 0)),
]


class TestPackedDecodePath:
    @pytest.mark.parametrize("name, kind, p, seed, expected", GOLDEN_COUNTS)
    def test_golden_counts(self, name, kind, p, seed, expected):
        code, dec = _code_and_decoder(name)
        for workers in (1, 3):
            result = monte_carlo(
                dec, NoiseModel(kind, p), 1 << 17, seed, workers=workers
            )
            got = tuple(
                result.counts[c]
                for c in (SUCCESS, LOGICAL_ERROR, DETECTED_UNCORRECTABLE)
            )
            assert got == expected, workers

    @pytest.mark.parametrize(
        "name, kind, p, seed, shard",
        [
            ("surface3", "depolarizing", 0.15, 1, 0),
            ("surface5", "bitflip", 0.05, 2, 1),
            ("surface5", "depolarizing", 0.05, 3, 7),
            ("rep5", "bitflip", 0.1, 1, 1),
            ("rep3", "depolarizing", 0.1, 3, 0),
        ],
    )
    def test_shard_matches_scalar_path(self, name, kind, p, seed, shard):
        code, dec = _code_and_decoder(name)
        noise = NoiseModel(kind, p)
        count = 2000
        expected = {SUCCESS: 0, LOGICAL_ERROR: 0, DETECTED_UNCORRECTABLE: 0}
        for error in draw_errors(seed, shard, count, code.n, noise):
            corr = decode(dec, syndrome(code, error))
            if corr is None:
                expected[DETECTED_UNCORRECTABLE] += 1
            else:
                expected[residual_class(code, error, corr)] += 1
        assert expected[LOGICAL_ERROR] > 0
        shard_args = (codes._decoder_arrays(dec), noise, count, seed, shard)
        assert codes._run_shard(shard_args) == expected

    @given(
        n=st.integers(1, 32),
        count=st.integers(1, 40),
        kind=st.sampled_from(["bitflip", "depolarizing"]),
        p=st.floats(0, 1),
        seed=st.integers(0, 2**32),
        shard=st.integers(0, 50),
    )
    def test_sampled_rows_are_symplectic_vectors(
        self, n, count, kind, p, seed, shard
    ):
        noise = NoiseModel(kind, p)
        shots, rows = _rows_from_letters(n, *sampled_errors(seed, shard, count, n, noise))
        assert rows.dtype == np.uint64 and rows.shape == shots.shape
        assert all(np.diff(shots) > 0) and all(rows != 0)
        dense = np.zeros(count, dtype=np.uint64)
        dense[shots] = rows
        assert [int(r) for r in dense] == [
            symplectic_vector(e) for e in draw_errors(seed, shard, count, n, noise)
        ]

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    @pytest.mark.parametrize("p", [0.3, 0.01, 1.0, 5e-324])
    def test_draws_on_the_thresholds(self, kind, p):
        # the uniform reference's letters: draws that sit exactly on p/3,
        # 2p/3 and p, and on either side
        cuts = [p / 3, 2 * p / 3, p]
        values = sorted({
            v for c in cuts for v in (np.nextafter(c, 0), c, np.nextafter(c, 1))
            if 0 <= v < 1
        } | {0.0})
        draws = np.array(values + [0.5] * (-len(values) % 3)).reshape(-1, 3)

        class Fixed:
            def random(self, shape):
                assert shape == draws.shape
                return draws.copy()

        noise = NoiseModel(kind, p)
        shots, rows = _rows_from_letters(
            draws.shape[1], *_uniform_sample_errors(Fixed(), *draws.shape, noise))
        dense = np.zeros(len(draws), dtype=np.uint64)
        dense[shots] = rows
        expected = _dense_sample_errors(Fixed(), *draws.shape, noise)
        assert dense.tolist() == expected.tolist()

    @given(
        name=st.sampled_from(sorted(_BUILDERS)),
        count=st.integers(1, 3000),
        kind=st.sampled_from(["bitflip", "depolarizing"]),
        p=st.floats(0, 1) | st.sampled_from([0.0, 1.0, 5e-324]),
        seed=st.integers(0, 2**32),
        shard=st.integers(0, 50),
    )
    def test_shard_matches_dense_reference(
        self, name, count, kind, p, seed, shard
    ):
        code, dec = _code_and_decoder(name)
        args = (codes._decoder_arrays(dec), NoiseModel(kind, p), count, seed, shard)
        assert codes._run_shard(args) == _dense_shard_reference(dec, args)

    @pytest.mark.parametrize(
        "p, expect_errors", [(0.0, False), (5e-324, False), (0.02, True)]
    )
    def test_error_free_shards_match_dense_reference(self, p, expect_errors):
        code, dec = _code_and_decoder("surface5")
        noise = NoiseModel("depolarizing", p)
        args = (codes._decoder_arrays(dec), noise, 3000, 4, 1)
        drew = any(
            not e.is_identity() for e in draw_errors(4, 1, 3000, code.n, noise)
        )
        assert drew == expect_errors
        assert codes._run_shard(args) == _dense_shard_reference(dec, args)

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_identity_class_comes_from_the_table(self, kind):
        # a hand-built table that "corrects" the zero syndrome with the
        # logical X turns every error-free shot into a logical error
        code, dec = _code_and_decoder("rep5")
        table = dict(dec.table)
        table[(0,) * code.m] = code.logical_x[0]
        odd = LookupDecoder.from_table(code, table, dec.max_weight)
        noise, count, seed, shard = NoiseModel(kind, 0.05), 3000, 5, 2
        args = (codes._decoder_arrays(odd), noise, count, seed, shard)
        got = codes._run_shard(args)
        assert got == _dense_shard_reference(odd, args)
        identity_shots = sum(
            e.is_identity() for e in draw_errors(seed, shard, count, code.n, noise)
        )
        assert 0 < identity_shots < count
        assert got[LOGICAL_ERROR] >= identity_shots
        normal = codes._run_shard((codes._decoder_arrays(dec), *args[1:]))
        assert normal[SUCCESS] >= identity_shots

    @given(name=st.sampled_from(sorted(_BUILDERS)), data=st.data())
    def test_letter_words_are_linear(self, name, data):
        # a row's syndrome, then its logical parities above bit m, is the
        # XOR of the words of its letters
        code, dec = _code_and_decoder(name)
        n = code.n
        gen_masks = _masks(n, code.generators)
        logical_masks = _masks(n, code.logical_x + code.logical_z)
        word = codes._letter_words(code)
        rows = np.array(data.draw(st.lists(st.integers(0, 2 ** (2 * n) - 1),
                                           min_size=1, max_size=8)), dtype=np.uint64)
        expected = (_pack(_parities(rows, gen_masks))
                    | _pack(_parities(rows, logical_masks)) << np.uint64(code.m))
        letter = {(1, 0): 0, (1, 1): 1, (0, 1): 2}  # (x, z) bits of X, Y, Z
        for row, want in zip(rows.tolist(), expected.tolist()):
            acc = 0
            for q in range(n):
                bits = (row >> (n + q) & 1, row >> q & 1)
                if bits != (0, 0):
                    acc ^= int(word[3 * q + letter[bits]])
            assert acc == want

    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
                 min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
                 max_size=8),
    )))
    def test_parities_are_anticommutation(self, case):
        n, row_bits, mask_bits = case
        rows = [PauliString(n, x, z) for x, z in row_bits]
        ops = [PauliString(n, x, z) for x, z in mask_bits]
        parities = _parities(
            np.array([symplectic_vector(r) for r in rows], dtype=np.uint64),
            np.array([(o.z << n) | o.x for o in ops], dtype=np.uint64),
        )
        assert parities.shape == (len(rows), len(ops))
        assert parities.tolist() == [
            [int(r.anticommutes(o)) for o in ops] for r in rows
        ]


class TestShardBlocks:
    """A shard draws and classifies its errors in blocks of about
    codes._BLOCK_ERRORS errors (2184 surface5 shots at p = 0.15, 32768 at
    p = 0.01); the counts must equal those of one draw of the shard."""

    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 2000, 2184, 2185, 32769, 65536])
    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    @pytest.mark.parametrize("p", [0.15, 0.01, 5e-324, 1.0])
    def test_blocks_match_one_draw(self, count, kind, p):
        _, dec = _code_and_decoder("surface5")
        args = (codes._decoder_arrays(dec), NoiseModel(kind, p), count, 3, 2)
        assert codes._run_shard(args) == _dense_shard_reference(dec, args)

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_many_block_boundaries(self, monkeypatch, kind):
        _, dec = _code_and_decoder("surface3")
        monkeypatch.setattr(codes, "_BLOCK_ERRORS", 7)  # blocks of 5 shots
        args = (codes._decoder_arrays(dec), NoiseModel(kind, 0.15), 2000, 8, 1)
        assert codes._run_shard(args) == _dense_shard_reference(dec, args)

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_one_shot_blocks_at_p_one(self, monkeypatch, kind):
        _, dec = _code_and_decoder("surface3")
        monkeypatch.setattr(codes, "_BLOCK_ERRORS", 7)
        args = (codes._decoder_arrays(dec), NoiseModel(kind, 1.0), 500, 8, 1)
        assert codes._run_shard(args) == _dense_shard_reference(dec, args)

    @staticmethod
    def _shard_peak(p):
        _, dec = _code_and_decoder("surface5")
        args = (codes._decoder_arrays(dec), NoiseModel("depolarizing", p),
                codes._SHARD_SHOTS, 1, 0)
        tracemalloc.start()
        try:
            codes._run_shard(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_working_set_is_bounded(self):
        # one draw of the whole shard's uniforms peaked at 14.9 MiB
        assert self._shard_peak(0.01) < 4 * 2**20

    def test_working_set_is_bounded_at_p_one(self):
        # every one of the shard's 1 638 400 trials errs
        assert self._shard_peak(1.0) < 4 * 2**20


class TestSparseSampler:
    """codes._sample_errors draws geometric gaps and then letters; its
    statistics are checked against the uniform reference and the
    binomial law, its extremes exactly."""

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300])
    def test_tiny_p_draws_no_error(self, kind, p):
        # geometric(5e-324) and geometric(1e-300) are 2^63 - 1, so a
        # plain running sum of the gaps would wrap
        noise, count = NoiseModel(kind, p), codes._SHARD_SHOTS
        assert all(len(a) == 0 for a in sampled_errors(9, 4, count, 25, noise))
        _, dec = _code_and_decoder("surface5")
        got = codes._run_shard((codes._decoder_arrays(dec), noise, count, 9, 4))
        assert got == {SUCCESS: count, LOGICAL_ERROR: 0, DETECTED_UNCORRECTABLE: 0}

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_p_one_errs_on_every_qubit(self, kind):
        count, n = 3000, 25
        shot, qubit, letter = sampled_errors(9, 4, count, n, NoiseModel(kind, 1.0))
        assert shot.tolist() == np.repeat(np.arange(count), n).tolist()
        assert qubit.tolist() == np.tile(np.arange(n), count).tolist()
        if kind == "bitflip":
            assert not letter.any()
        else:
            # each letter a third of the time, within z = 5
            freq = np.bincount(letter, minlength=3)
            assert len(freq) == 3
            assert (abs(freq - count * n / 3) <= 5 * math.sqrt(count * n * 2 / 9)).all()

    @settings(derandomize=True)
    @given(
        n=st.integers(1, 32),
        kind=st.sampled_from(["bitflip", "depolarizing"]),
        p=st.floats(0, 1) | st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
        seed=st.integers(0, 2**32),
        shard=st.integers(0, 50),
    )
    def test_letter_frequencies_match_uniform_reference(self, n, kind, p, seed, shard):
        noise, count = NoiseModel(kind, p), 2000

        def frequencies(shot, qubit, letter):
            return np.bincount(3 * qubit + letter, minlength=3 * n)

        sparse = frequencies(*sampled_errors(seed, shard, count, n, noise))
        rng = np.random.default_rng(np.random.SeedSequence([seed, shard]))
        uniform = frequencies(*_uniform_sample_errors(rng, count, n, noise))
        # the difference of two binomial counts, at the pooled rate
        rate = (sparse + uniform) / (2 * count)
        assert (abs(sparse - uniform) <= 5 * np.sqrt(2 * count * rate * (1 - rate))).all()

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    @pytest.mark.parametrize("n, p", [(25, 0.01), (25, 0.15), (9, 0.5), (32, 0.9)])
    def test_weight_histogram_is_binomial(self, kind, n, p):
        count = codes._SHARD_SHOTS
        shot, _, _ = sampled_errors(11, 3, count, n, NoiseModel(kind, p))
        seen = np.bincount(np.bincount(shot, minlength=count), minlength=n + 1)
        # pool neighbouring weights until each cell expects >= 5 shots
        cells, got, want = [], 0, 0.0
        for w in range(n + 1):
            got += int(seen[w])
            want += count * math.comb(n, w) * p**w * (1 - p) ** (n - w)
            if want >= 5:
                cells.append([got, want])
                got, want = 0, 0.0
        cells[-1][0] += got
        cells[-1][1] += want
        chi2 = sum((g - e) ** 2 / e for g, e in cells)
        df = len(cells) - 1
        # the chi-square quantile of z = 5 (Wilson & Hilferty)
        limit = df * (1 - 2 / (9 * df) + 5 * math.sqrt(2 / (9 * df))) ** 3
        assert df >= 3 and chi2 <= limit, (chi2, df, limit)


# failure_counts' weight for each (code, noise) of the golden cases: every
# error (rep3, rep5, surface3), or to a binomial tail of 4.5e-6
# (surface5 depolarizing at p = 0.01) and 1.9e-6 (bitflip at p = 0.05)
_EXACT_WEIGHT = {("surface5", "depolarizing"): 4, ("surface5", "bitflip"): 8}


@functools.cache
def _exact(name, kind):
    code, dec = _code_and_decoder(name)
    return failure_counts(dec, kind, _EXACT_WEIGHT.get((name, kind), code.n))


def _within_z5(failures, shots, bounds):
    """A z = 5 Wilson interval of the failures meets the exact bounds."""
    lo, hi = wilson_interval(failures, shots, z=5.0)
    return lo <= bounds[1] and bounds[0] <= hi


class TestFailureCounts:
    @pytest.mark.parametrize("name, kind", [
        ("rep3", "bitflip"), ("rep3", "depolarizing"),
        ("surface3", "depolarizing"), ("surface5", "bitflip"),
    ])
    def test_every_error_counted_once(self, name, kind):
        code, dec = _code_and_decoder(name)
        letters = 1 if kind == "bitflip" else 3
        got = failure_counts(dec, kind, 3)
        assert (got.n, got.kind) == (code.n, kind)
        assert [sum(c) for c in got.counts] == [
            math.comb(code.n, w) * letters**w for w in range(4)]

    @pytest.mark.parametrize("n", [3, 5])
    def test_repetition_closed_form(self, n):
        _, dec = _code_and_decoder(f"rep{n}")
        got = failure_counts(dec, "bitflip", n)
        for p in (0.0, 1e-3, 0.05, 0.1, 0.3, 0.5, 1.0):
            lo, hi = got.p_logical_bounds(p)
            assert lo == hi
            assert lo == pytest.approx(repetition_failure_rate(n, p), rel=1e-12, abs=1e-300)

    def test_depolarizing_rep3_closed_form(self):
        # as in TestMonteCarlo: success iff the X part has weight <= 1 and
        # the Z part even parity
        p = 0.1
        prob = {"I": 1 - p, "X": p / 3, "Y": p / 3, "Z": p / 3}
        success = math.fsum(
            math.prod(prob[c] for c in combo)
            for combo in itertools.product("IXYZ", repeat=3)
            if sum(c in "XY" for c in combo) <= 1 and sum(c in "YZ" for c in combo) % 2 == 0)
        lo, hi = _exact("rep3", "depolarizing").p_logical_bounds(p)
        assert lo == hi == pytest.approx(1 - success, rel=1e-12)

    @pytest.mark.parametrize("name, max_weight", [("surface3", 3), ("surface5", 3)])
    def test_classes_match_scalar_path(self, name, max_weight):
        code, dec = _code_and_decoder(name)
        index = {SUCCESS: 0, LOGICAL_ERROR: 1, DETECTED_UNCORRECTABLE: 2}
        expected = [[0, 0, 0] for _ in range(max_weight + 1)]
        for w in range(max_weight + 1):
            for support in itertools.combinations(range(code.n), w):
                for letters in itertools.product("XYZ", repeat=w):
                    error = PauliString.identity(code.n)
                    for q, letter in zip(support, letters):
                        error = error * PauliString.single(code.n, q, letter)
                    corr = decode(dec, syndrome(code, error))
                    cls = (DETECTED_UNCORRECTABLE if corr is None
                           else residual_class(code, error, corr))
                    expected[w][index[cls]] += 1
        got = failure_counts(dec, "depolarizing", max_weight)
        assert got.counts == tuple(map(tuple, expected))

    def test_surface5_tail(self):
        lo, hi = _exact("surface5", "depolarizing").p_logical_bounds(0.01)
        assert 0 < hi - lo <= 6e-6
        assert 1.835e-3 < lo < hi < 1.840e-3

    @pytest.mark.parametrize("name, kind, p", [
        ("surface5", "depolarizing", 0.01), ("rep3", "depolarizing", 0.1),
        ("rep5", "bitflip", 0.1), ("surface3", "depolarizing", 0.15),
    ])
    def test_monte_carlo_within_z5_of_exact(self, name, kind, p):
        _, dec = _code_and_decoder(name)
        shots = 1 << 20
        result = monte_carlo(dec, NoiseModel(kind, p), shots, 20251017)
        failures = result.counts[LOGICAL_ERROR] + result.counts[DETECTED_UNCORRECTABLE]
        assert _within_z5(failures, shots, _exact(name, kind).p_logical_bounds(p))

    @pytest.mark.parametrize("name, kind, p, seed, expected",
                             GOLDEN_COUNTS + UNIFORM_GOLDEN_COUNTS)
    def test_golden_counts_bracket_exact_rate(self, name, kind, p, seed, expected):
        assert sum(expected) == 1 << 17
        failures = expected[1] + expected[2]
        assert _within_z5(failures, 1 << 17, _exact(name, kind).p_logical_bounds(p))

    def test_guard(self):
        _, dec = _code_and_decoder("surface5")
        with pytest.raises(ValueError, match="weight <= 5 enumerate 14000116 errors, "
                           "over the limit of 4194304"):
            failure_counts(dec, "depolarizing", 5)

    def test_weight_above_n_enumerates_every_error(self, rep3):
        got = failure_counts(build_lookup(rep3, 1), "depolarizing", 7)
        assert len(got.counts) == 4
        assert got.p_logical_bounds(0.2)[0] == got.p_logical_bounds(0.2)[1]

    @pytest.mark.parametrize("kind, weight, message", [
        ("erasure", 1, "unknown noise kind 'erasure'"),
        ("bitflip", -1, "max_weight must be >= 0"),
    ])
    def test_bad_arguments(self, rep3, kind, weight, message):
        with pytest.raises(ValueError, match=message):
            failure_counts(build_lookup(rep3, 1), kind, weight)

    @pytest.mark.parametrize("p", [1.5, -0.5, math.nan, math.inf])
    def test_bounds_refuse_p_outside_unit_interval(self, p):
        # were (0.0, 0.0) at 1.5, (1.0, 1.0) at -0.5 and (nan, nan) at nan
        got = _exact("rep3", "depolarizing")
        with pytest.raises(ValueError, match=r"error probability must be in \[0, 1\]"):
            got.p_logical_bounds(p)

    @pytest.mark.parametrize("name", ["rep3", "surface5"])
    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_weight_zero_counts_the_zero_word(self, name, kind):
        code, dec = _code_and_decoder(name)
        assert failure_counts(dec, kind, 0).counts == ((1, 0, 0),)
        # the zero syndrome "corrected" by the logical X: the no-error
        # shot is a logical error
        table = dict(dec.table)
        table[(0,) * code.m] = code.logical_x[0]
        odd = LookupDecoder.from_table(code, table, dec.max_weight)
        got = failure_counts(odd, kind, 0)
        assert (got.n, got.kind, got.counts) == (code.n, kind, ((0, 1, 0),))
        assert got.p_logical_bounds(0.0) == (1.0, 1.0)

    @pytest.mark.parametrize("kind, max_weight", [("depolarizing", 4), ("bitflip", 8)])
    def test_working_set_is_bounded(self, kind, max_weight):
        # one batch of words per (qubit, weight) and the lighter words
        # kept for the next qubit: 7.0 and 18.0 MiB measured
        _, dec = _code_and_decoder("surface5")
        failure_counts(dec, kind, 1)  # warm up
        tracemalloc.start()
        try:
            failure_counts(dec, kind, max_weight)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, peak


class TestOneDecoderPass:
    """from_table checks a hand-built table and packs it in one pass, and
    a campaign or the failure counts read any decoder's packed errors."""

    @staticmethod
    def _calls(monkeypatch):
        # each _letter_words call's n, each anticommutation_rows call's rows
        calls = {"_letter_words": [], "anticommutation_rows": []}
        for name, size in (("_letter_words", operator.attrgetter("n")),
                           ("anticommutation_rows", len)):
            def counted(first, *args, _name=name, _real=getattr(codes, name), _size=size):
                calls[_name].append(_size(first))
                return _real(first, *args)
            monkeypatch.setattr(codes, name, counted)
        return calls

    @pytest.mark.parametrize("run", [
        lambda dec: monte_carlo(dec, NoiseModel("depolarizing", 0.05), 1000, seed=1),
        lambda dec: failure_counts(dec, "depolarizing", 2),
    ], ids=["monte_carlo", "failure_counts"])
    def test_one_pass(self, monkeypatch, run):
        code, dec = _code_and_decoder("surface3")
        checked = LookupDecoder.from_table(code, dec.table, dec.max_weight)
        calls = self._calls(monkeypatch)
        run(dec)
        run(checked)
        # each campaign: validate_code's pass over the code's m + 2k = 10
        # operators, then one over the 27 letters for their words
        assert calls == {"_letter_words": [9, 9], "anticommutation_rows": [10, 27, 10, 27]}

    def test_from_table_one_pass(self, monkeypatch):
        code, dec = _code_and_decoder("surface3")
        calls = self._calls(monkeypatch)
        LookupDecoder.from_table(code, dec.table, dec.max_weight)
        # one pass for every correction
        assert calls == {"_letter_words": [], "anticommutation_rows": [len(dec.table)]}

    def test_keys_unpack_across_chunks(self, monkeypatch):
        # the table's keys are unpacked a shard's worth at a time: chunks
        # of 3 here
        code, dec = _code_and_decoder("surface3")
        monkeypatch.setattr(codes, "_SHARD_SHOTS", 3)
        table = build_lookup(code, dec.max_weight).table
        assert list(table.items()) == list(dec.table.items())
        # and the check compares them chunk by chunk
        monte_carlo(LookupDecoder.from_table(code, table, dec.max_weight),
                    NoiseModel("bitflip", 0.1), 100, 1)


class TestShardBookkeeping:
    """monte_carlo hands shards to its workers from one shared counter, and
    each worker sums its own counts."""

    @staticmethod
    def _all_success(args):
        return {SUCCESS: args[2], LOGICAL_ERROR: 0, DETECTED_UNCORRECTABLE: 0}

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_shard_runs_once(self, monkeypatch, rep3, workers):
        seen = []

        def run_shard(args):
            (_, _, count, _, shard_index) = args
            seen.append((shard_index, count))
            return self._all_success(args)

        monkeypatch.setattr(codes, "_run_shard", run_shard)
        shots = 63 * codes._SHARD_SHOTS + 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the workers over as often as possible
        try:
            result = monte_carlo(build_lookup(rep3, 1), NoiseModel("bitflip", 0.1),
                                 shots, 1, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == [(i, codes._SHARD_SHOTS) for i in range(63)] + [(63, 5)]
        assert result.counts == self._all_success((None, None, shots))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_shard_stops_the_campaign(self, monkeypatch, rep3, workers):
        calls, run_shard = itertools.count(1), codes._run_shard

        def fails_third(args):
            if next(calls) == 3:
                raise RuntimeError("shard failed")
            return run_shard(args)

        monkeypatch.setattr(codes, "_run_shard", fails_third)
        with pytest.raises(RuntimeError, match="shard failed"):
            monte_carlo(build_lookup(rep3, 1), NoiseModel("bitflip", 0.1),
                        64 * codes._SHARD_SHOTS, 1, workers=workers)
        # every other worker may have started one more shard; without a
        # stop, the pool ran all 64 before the error reached the caller
        assert next(calls) - 1 <= 3 + (workers - 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ctrl_c_stops_the_campaign(self, monkeypatch, rep3, workers):
        calls, run_shard = itertools.count(1), codes._run_shard
        main = threading.main_thread().ident

        def interrupts_third(args):
            if next(calls) == 3:  # as Ctrl-C does, while the caller waits
                signal.pthread_kill(main, signal.SIGINT)
            return run_shard(args)

        monkeypatch.setattr(codes, "_run_shard", interrupts_third)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                monte_carlo(build_lookup(rep3, 1), NoiseModel("bitflip", 0.1),
                            64 * codes._SHARD_SHOTS, 1, workers=workers)
        finally:
            signal.signal(signal.SIGINT, handler)
        # every worker may have started one more shard
        assert next(calls) - 1 <= 3 + workers

    def test_bookkeeping_is_bounded(self, monkeypatch, rep3):
        monkeypatch.setattr(codes, "_run_shard", self._all_success)
        dec, noise = build_lookup(rep3, 1), NoiseModel("bitflip", 0.1)

        def peak(shots):
            tracemalloc.start()
            try:
                result = monte_carlo(dec, noise, shots, 1, workers=2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert result.counts[SUCCESS] == shots
            return peak

        peak(1 << 20)  # warm up
        small, large = peak(1 << 20), peak(1 << 30)
        # one job tuple and one result dict per shard peaked at 30 MiB at
        # 2^30 shots (16 384 shards)
        assert large < small + 64 * 1024, (small, large)


class TestDefaultWorkers:
    def test_default_equals_one_worker(self):
        name, kind, p, seed, expected = GOLDEN_COUNTS[0]
        _, dec = _code_and_decoder(name)
        noise = NoiseModel(kind, p)
        default = monte_carlo(dec, noise, 1 << 17, seed)
        serial = monte_carlo(dec, noise, 1 << 17, seed, workers=1)
        assert default == serial
        assert tuple(default.counts.values()) == expected

    @pytest.mark.parametrize(
        "shots, workers, cpus, pool",
        [
            (codes._SHARD_SHOTS, None, 4, 1),  # one shard, a pool of one
            (3 * codes._SHARD_SHOTS, None, 2, 2),
            (3 * codes._SHARD_SHOTS, None, 8, 3),  # capped at the shards
            (3 * codes._SHARD_SHOTS, 8, 1, 3),
            (3 * codes._SHARD_SHOTS, 1, 4, 1),
        ],
    )
    def test_pool_size(self, monkeypatch, rep3, shots, workers, cpus, pool):
        sizes = []

        class Recording(codes.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(codes, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(codes, "_usable_cpus", lambda: cpus)
        dec = build_lookup(rep3, 1)
        result = monte_carlo(dec, NoiseModel("bitflip", 0.08), shots, 5,
                             workers=workers)
        assert sum(result.counts.values()) == shots
        assert sizes == ([] if pool is None else [pool])


def _z_code(n):
    """[[n, 0]]: Z on each qubit, so m = n generators and no logicals."""
    gens = tuple(PauliString(n, 0, 1 << q) for q in range(n))
    return StabilizerCode(n, 0, gens, (), (), 1)


@functools.cache
def _surface7():
    return build_lookup(rotated_surface_code(7), 3)


class TestWordWidths:
    """A syndrome key is m bits and a shot word m + 2k bits, each packed
    in a uint64: codes at those widths run, and one bit past is refused."""

    def test_sixty_four_bit_shot_words(self):
        # rep63: m = 62, k = 1
        dec = build_lookup(repetition_code(63), 2)
        exact = failure_counts(dec, "bitflip", 4)
        assert exact.counts == ((1, 0, 0), (63, 0, 0), (1953, 0, 0), (0, 0, 39711),
                                (0, 0, 595665))
        runs = [monte_carlo(dec, NoiseModel("bitflip", 0.01), 1 << 17, 7, workers=w)
                for w in (1, 3)]
        assert runs[0] == runs[1]
        assert runs[0].counts == {SUCCESS: 127740, LOGICAL_ERROR: 0,
                                  DETECTED_UNCORRECTABLE: 3332}
        assert _within_z5(3332, 1 << 17, exact.p_logical_bounds(0.01))

    def test_sixty_four_bit_keys(self):
        # k = 0 and m = 64: the logical parities are a uint64 shifted by 64
        dec = build_lookup(_z_code(64), 1)
        assert validate_code(dec.code).ok and len(dec.errors) == 65
        runs = [monte_carlo(dec, NoiseModel("depolarizing", 0.01), 1 << 17, 3, workers=w)
                for w in (1, 3)]
        assert runs[0] == runs[1]
        assert runs[0].counts == {SUCCESS: 122208, LOGICAL_ERROR: 0,
                                  DETECTED_UNCORRECTABLE: 8864}
        exact = failure_counts(dec, "depolarizing", 2)
        assert _within_z5(8864, 1 << 17, exact.p_logical_bounds(0.01))

    def test_surface7(self):
        # n = 49, m = 48, m + 2k = 50: no failure up to weight 3
        dec = _surface7()
        assert len(dec.errors) == 368760
        exact = failure_counts(dec, "depolarizing", 3)
        assert exact.counts == ((1, 0, 0), (147, 0, 0), (10584, 0, 0), (497448, 0, 0))
        result = monte_carlo(dec, NoiseModel("depolarizing", 0.01), 1 << 16, 20251017)
        failures = result.counts[LOGICAL_ERROR] + result.counts[DETECTED_UNCORRECTABLE]
        assert _within_z5(failures, 1 << 16, exact.p_logical_bounds(0.01))

    @pytest.mark.parametrize("code, m", [(rotated_surface_code(9), 80),
                                         (repetition_code(67), 66)])
    def test_keys_over_64_bits_refused(self, code, m):
        message = rf"packed in 64 bits, so need m <= 64 generators, got m = {m}"
        with pytest.raises(ValueError, match=message):
            build_lookup(code, 0)
        with pytest.raises(ValueError, match=message):
            LookupDecoder.from_table(code, {(0,) * m: PauliString.identity(code.n)}, 0)
