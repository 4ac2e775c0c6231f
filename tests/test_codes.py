"""Stabilizer codes, syndromes, lookup decoding, and Monte Carlo campaigns."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from pauliflow.pauli import PauliString, independent, symplectic_vector


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
        dec = build_lookup(repetition_code(3), 1)
        with pytest.raises(ValueError, match=r"invalid code: \+ZZ is not a "
                           "Hermitian length-3 Pauli"):
            monte_carlo(code, dec, NoiseModel("bitflip", 0.1), 1000, seed=1)

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
    """n = 34 > MONTE_CARLO_MAX_N with one ZZ check: too wide for a
    campaign's uint64 rows, yet build_lookup runs the same kernel path."""
    n = 34
    zz = PauliString(n, 0, 0b11)
    return StabilizerCode(
        n=n, k=n - 1, generators=(zz,),
        logical_x=tuple(PauliString.single(n, q, "X") for q in range(1, n)),
        logical_z=tuple(PauliString.single(n, q, "Z") for q in range(1, n)),
        distance=1,
    )


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

    @pytest.mark.parametrize("max_weight", [0, 1, 2])
    @pytest.mark.parametrize("name", ["rep3", "rep5", "surface3", "surface5", "wide"])
    def test_matches_scalar_syndrome_table(self, name, max_weight):
        code = _LOOKUP_CODES[name]()
        expected = {}
        for error in codes._errors_by_weight(code.n, max_weight):
            expected.setdefault(syndrome(code, error), error)
        table = build_lookup(code, max_weight).table
        # same keys, same corrections, same first-seen order
        assert list(table.items()) == list(expected.items())

    def test_guard(self):
        code = rotated_surface_code(7)  # m = 48
        with pytest.raises(ValueError, match="m <= 24"):
            build_lookup(code, max_weight=1)


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
        result = monte_carlo(rep3, dec, NoiseModel("bitflip", 0.0), 1000, seed=1)
        assert result.p_logical_estimate == 0.0
        assert result.counts[SUCCESS] == 1000

    def test_bitflip_matches_analytic(self, rep3):
        dec = build_lookup(rep3, 1)
        p = 0.1
        result = monte_carlo(rep3, dec, NoiseModel("bitflip", p), 200_000, seed=7)
        analytic = repetition_failure_rate(3, p)
        assert analytic == pytest.approx(3 * p**2 - 2 * p**3)
        sigma = np.sqrt(analytic * (1 - analytic) / 200_000)
        assert abs(result.p_logical_estimate - analytic) <= 3 * sigma

    def test_depolarizing_runs_and_classifies(self, rep3):
        dec = build_lookup(rep3, 1)
        result = monte_carlo(
            rep3, dec, NoiseModel("depolarizing", 0.05), 50_000, seed=3
        )
        total = sum(result.counts.values())
        assert total == 50_000
        # Z components are invisible to this code, so failures exist
        assert result.counts[LOGICAL_ERROR] > 0

    def test_worker_count_does_not_change_counts(self, rep3):
        dec = build_lookup(rep3, 1)
        noise = NoiseModel("bitflip", 0.08)
        baseline = monte_carlo(rep3, dec, noise, 150_000, seed=11, workers=1)
        for workers in (2, 8):
            again = monte_carlo(rep3, dec, noise, 150_000, seed=11, workers=workers)
            assert again.counts == baseline.counts

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, rep3, workers):
        dec = build_lookup(rep3, 1)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            monte_carlo(
                rep3, dec, NoiseModel("bitflip", 0.08), 1000, seed=1,
                workers=workers,
            )

    def test_seed_changes_samples(self, rep3):
        dec = build_lookup(rep3, 1)
        noise = NoiseModel("bitflip", 0.08)
        a = monte_carlo(rep3, dec, noise, 50_000, seed=1)
        b = monte_carlo(rep3, dec, noise, 50_000, seed=2)
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
            rep3, dec, NoiseModel("depolarizing", p), shots, seed=17
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
        result = monte_carlo(code, dec, noise, 20_000, seed=5)
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
            monte_carlo(bad, dec, NoiseModel("bitflip", 0.1), 1000, seed=1)

    def test_more_than_32_qubits_rejected(self):
        code = repetition_code(33)
        dec = LookupDecoder(
            code=code, table={(0,) * code.m: PauliString.identity(33)},
            max_weight=0,
        )
        with pytest.raises(ValueError, match="n <= 32 qubits"):
            monte_carlo(code, dec, NoiseModel("bitflip", 0.1), 1000, seed=1)


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


def draw_errors(seed, shard, count, n, noise):
    """Redraw one shard's errors from its (seed, shard) stream, one
    PauliString per shot, with the sampler's per-qubit thresholds."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard]))
    u = rng.random((count, n))
    p = noise.p
    if noise.kind == "bitflip":
        xs, zs = u < p, np.zeros_like(u, dtype=bool)
    else:
        xs, zs = u < 2 * p / 3, (u >= p / 3) & (u < p)

    def mask(bits):
        return sum(1 << int(q) for q in np.flatnonzero(bits))

    return [PauliString(n, mask(x), mask(z)) for x, z in zip(xs, zs)]


def _dense_sample_errors(rng, count: int, n: int, noise: NoiseModel) -> np.ndarray:
    """One symplectic_vector row (x << n) | z per shot, as uint64."""
    if noise.p == 0:
        return np.zeros(count, dtype=np.uint64)
    u = rng.random((count, n))
    p = noise.p
    if noise.kind == "bitflip":
        return codes._pack(u < p) << n
    x = codes._pack(u < 2 * p / 3)  # letters X and Y
    z = codes._pack((u >= p / 3) & (u < p))  # letters Y and Z
    return x << n | z


def _dense_shard_reference(args):
    """The shard as it was before sampling went sparse: every shot, the
    identity ones included, is built, looked up and classified."""
    (dec_arrays, noise, count, seed, shard_index) = args
    n, gen_masks, keys, corrections, logical_masks = dec_arrays
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard_index]))
    errors = _dense_sample_errors(rng, count, n, noise)
    synd = codes._pack(codes._parities(errors, gen_masks))
    pos = np.minimum(np.searchsorted(keys, synd), len(keys) - 1)
    hit = keys[pos] == synd
    # a hit leaves a residual with zero syndrome; it lies in the generator
    # span iff it also commutes with every logical operator
    residual = errors[hit] ^ corrections[pos[hit]]
    logical = int(codes._parities(residual, logical_masks).any(axis=1).sum())
    hits = int(hit.sum())
    return {
        SUCCESS: hits - logical,
        LOGICAL_ERROR: logical,
        DETECTED_UNCORRECTABLE: count - hits,
    }


# (success, logical_error, detected_uncorrectable) at 2^17 shots, as
# recorded with the earlier classifier, which eliminated each residual
# against the generator rows over GF(2)
GOLDEN_COUNTS = [
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
                code, dec, NoiseModel(kind, p), 1 << 17, seed, workers=workers
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
        rng = np.random.default_rng(np.random.SeedSequence([seed, shard]))
        shots, rows = codes._sample_errors(rng, count, n, noise)
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
        # draws that sit exactly on p/3, 2p/3 and p, and on either side
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
        shots, rows = codes._sample_errors(Fixed(), *draws.shape, noise)
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
        assert codes._run_shard(args) == _dense_shard_reference(args)

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
        assert codes._run_shard(args) == _dense_shard_reference(args)

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_identity_class_comes_from_the_table(self, kind):
        # a hand-built table that "corrects" the zero syndrome with the
        # logical X turns every error-free shot into a logical error
        code, dec = _code_and_decoder("rep5")
        table = dict(dec.table)
        table[(0,) * code.m] = code.logical_x[0]
        odd = LookupDecoder(code=code, table=table, max_weight=dec.max_weight)
        noise, count, seed, shard = NoiseModel(kind, 0.05), 3000, 5, 2
        args = (codes._decoder_arrays(odd), noise, count, seed, shard)
        got = codes._run_shard(args)
        assert got == _dense_shard_reference(args)
        identity_shots = sum(
            e.is_identity() for e in draw_errors(seed, shard, count, code.n, noise)
        )
        assert 0 < identity_shots < count
        assert got[LOGICAL_ERROR] >= identity_shots
        normal = codes._run_shard((codes._decoder_arrays(dec), *args[1:]))
        assert normal[SUCCESS] >= identity_shots

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
        parities = codes._parities(
            np.array([symplectic_vector(r) for r in rows], dtype=np.uint64),
            np.array([(o.z << n) | o.x for o in ops], dtype=np.uint64),
        )
        assert parities.shape == (len(rows), len(ops))
        assert parities.tolist() == [
            [int(r.anticommutes(o)) for o in ops] for r in rows
        ]
