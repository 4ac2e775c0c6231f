"""Closed-form resource formulas and workload-based protocol selection."""

import dataclasses
import itertools

import pytest

from pauliflow import scheduling
from pauliflow.pauli import PauliString, anticommutation_rows
from pauliflow.resources import (
    CodeParams,
    WorkloadProfile,
    build_report,
    correctable_weight,
    distillation_volume,
    distilled_error,
    logical_error_rate,
    min_distance_for,
    physical_qubits,
    recommend_protocol,
)


class TestPhysicalQubits:
    def test_standard_d27(self):
        assert physical_qubits(CodeParams(27, "standard")) == 1457

    def test_reuse_d31(self):
        assert physical_qubits(CodeParams(31, "ancilla_reuse")) == 1441

    def test_standard_d3(self):
        assert physical_qubits(CodeParams(3, "standard")) == 17

    def test_even_distance_rejected(self):
        with pytest.raises(ValueError):
            CodeParams(4, "standard")
        with pytest.raises(ValueError):
            CodeParams(1, "standard")

    def test_reuse_always_smaller_and_halves_ancillas(self):
        for d in range(3, 61, 2):
            std = physical_qubits(CodeParams(d, "standard"))
            reuse = physical_qubits(CodeParams(d, "ancilla_reuse"))
            assert reuse < std
            assert std - reuse == (d * d - 1) // 2

    def test_crossover_claim(self):
        # a reuse code four distances up costs no more than the standard code
        for d in range(27, 61, 2):
            assert physical_qubits(
                CodeParams(d + 4, "ancilla_reuse")
            ) <= physical_qubits(CodeParams(d, "standard"))


class TestLogicalErrorRate:
    def test_reference_p(self):
        for d in (3, 7, 11):
            assert logical_error_rate(d, 0.01) == pytest.approx(0.03)

    def test_d3_p_milli(self):
        assert logical_error_rate(3, 0.001) == pytest.approx(3e-4)

    def test_d11_p_milli(self):
        assert logical_error_rate(11, 0.001) == pytest.approx(3e-8)

    def test_monotone(self):
        assert logical_error_rate(5, 0.001) < logical_error_rate(3, 0.001)
        assert logical_error_rate(3, 0.001) < logical_error_rate(3, 0.005)

    def test_domain(self):
        with pytest.raises(ValueError):
            logical_error_rate(3, 0.02)
        with pytest.raises(ValueError):
            logical_error_rate(3, 0.0)


class TestMinDistance:
    def test_exact_boundary(self):
        assert min_distance_for(3e-4, 0.001) == 3

    def test_scan(self):
        # frozen from an explicit scan over odd d
        target, p = 1e-8, 0.001
        expected = next(
            d for d in range(3, 99, 2) if logical_error_rate(d, p) <= target
        )
        assert expected == 13
        assert min_distance_for(target, p) == 13

    def test_at_threshold_no_distance_helps(self):
        with pytest.raises(ValueError):
            min_distance_for(0.02, 0.01)

    def test_at_threshold_loose_target(self):
        assert min_distance_for(0.03, 0.01) == 3


class TestCorrectableWeight:
    @pytest.mark.parametrize("d,expected", [(3, 1), (5, 2), (1, 0), (9, 4)])
    def test_values(self, d, expected):
        assert correctable_weight(d) == expected


class TestDistillationVolume:
    def test_15_to_1(self):
        for d in (1, 3, 13):
            vol = distillation_volume("15-to-1", d)
            assert vol["volume"] == 660 * d**3
            assert vol["area_tiles"] == 55
            assert vol["cycles"] == 12 * d

    def test_20_to_4(self):
        vol = distillation_volume("20-to-4", 5)
        assert vol["volume"] == 56 * 5**3
        assert (vol["area_tiles"], vol["cycles"]) == (14, 20)

    def test_unknown(self):
        with pytest.raises(ValueError):
            distillation_volume("99-to-0", 3)


class TestDistilledError:
    def test_cubic_suppression_exact(self):
        assert distilled_error("15-to-1", 1e-4) == 3.5e-11

    def test_zero(self):
        assert distilled_error("15-to-1", 0.0) == 0.0

    def test_two_level_composition(self):
        once = distilled_error("15-to-1", 1e-4)
        twice = distilled_error("15-to-1", once)
        assert twice == pytest.approx(35 * (3.5e-11) ** 3, rel=1e-12)
        assert twice < 2e-30

    def test_20_to_4_order(self):
        assert distilled_error("20-to-4", 1e-3) == pytest.approx(1e-6)

    def test_error_model_read_from_the_catalog(self, monkeypatch):
        # the shipped catalog states error_coeff and error_exp; nothing
        # in resources restates them
        shipped = scheduling.default_catalog()
        assert [(p.name, p.error_coeff, p.error_exp) for p in shipped] == [
            ("15-to-1", 35.0, 3), ("20-to-4", 1.0, 2)]
        edited = [dataclasses.replace(p, error_coeff=3 * p.error_coeff,
                                      error_exp=p.error_exp + 1) for p in shipped]
        monkeypatch.setattr(scheduling, "default_catalog", lambda: edited)
        assert distilled_error("15-to-1", 0.5) == 105 * 0.5**4
        assert distilled_error("20-to-4", 0.5) == 3 * 0.5**3

    def test_name_checked_against_the_catalog(self, monkeypatch):
        shipped = scheduling.default_catalog()
        renamed = [dataclasses.replace(shipped[0], name="15-to-1 copy")]
        monkeypatch.setattr(scheduling, "default_catalog", lambda: renamed)
        assert distilled_error("15-to-1 copy", 1e-4) == 3.5e-11
        with pytest.raises(ValueError, match="unknown protocol '15-to-1'"):
            distilled_error("15-to-1", 1e-4)

    def test_catalog_parsed_once(self, monkeypatch):
        # build_report reads the catalog two or three times a call; the
        # shipped file is parsed once per process
        parses = []

        def counting_parse(text):
            parses.append(text)
            return parse_catalog(text)

        parse_catalog = scheduling.parse_catalog
        monkeypatch.setattr(scheduling, "parse_catalog", counting_parse)
        scheduling._shipped_catalog.cache_clear()
        workload = WorkloadProfile(400, 40, 1e-4, 1e-9)
        first = build_report(CodeParams(27), workload)
        assert build_report(CodeParams(27), workload) == first
        assert len(parses) == 1
        # each call returns a fresh list, so a caller's edit is its own
        shared = scheduling.default_catalog()
        shared.append(shared[0])
        assert len(scheduling.default_catalog()) == 2


def test_fifteen_to_one_error_model_is_derived():
    """15-to-1's 35 p^3 from the [[15,1,3]] code (Bravyi & Kitaev,
    quant-ph/0403025).

    Its four X checks are the [15,4] simplex code: check b has X on qubit
    j iff bit b of j + 1 is set.  A Z error on the inputs passes iff it
    commutes with every check.
    """
    n = 15
    checks = [PauliString(n, sum(1 << j for j in range(n) if (j + 1) >> b & 1), 0)
              for b in range(4)]
    logical_x = PauliString(n, (1 << n) - 1, 0)

    def undetected(weight):
        errors = [PauliString(n, 0, sum(1 << q for q in support))
                  for support in itertools.combinations(range(n), weight)]
        rows = anticommutation_rows(errors, checks)
        return [e for e, row in zip(errors, rows) if row == 0]

    assert undetected(1) == undetected(2) == []
    passed = undetected(3)
    assert len(passed) == 35  # of the 455 weight-3 Z errors
    # each one flips the output: it anticommutes with X^15
    assert all(e.anticommutes(logical_x) for e in passed)
    (fifteen,) = [p for p in scheduling.default_catalog() if p.name == "15-to-1"]
    assert (fifteen.error_coeff, fifteen.error_exp) == (len(passed), 3)


WORKLOADS = {
    "high_rate": WorkloadProfile(10**8, 10**6, 1e-4, 1e-10),
    "ultra_low": WorkloadProfile(10**10, 10**4, 1e-4, 1e-15),
    "constrained": WorkloadProfile(10**6, 10**6, 1e-4, 1e-10),
}


class TestRecommendProtocol:
    def test_high_rate_streaming(self):
        rec = recommend_protocol(WORKLOADS["high_rate"])
        assert (rec.label, rec.cost_per_state_d3) == ("20-to-4", 27.0)

    def test_ultra_low_error(self):
        rec = recommend_protocol(WORKLOADS["ultra_low"])
        assert (rec.label, rec.cost_per_state_d3) == ("15-to-1 x 15-to-1", 25.9)

    def test_resource_constrained(self):
        rec = recommend_protocol(WORKLOADS["constrained"])
        assert (rec.label, rec.cost_per_state_d3) == ("15-to-1", 6.3)

    def test_total_and_deterministic(self):
        for w in WORKLOADS.values():
            assert recommend_protocol(w) == recommend_protocol(w)

    @pytest.mark.parametrize("ratio", [float("nan"), -5.0, -1e-300])
    def test_ratio_nan_or_negative_rejected(self, ratio):
        # t_count / t_depth >= nan is false, so nan never streamed, and
        # any negative ratio acted as 0
        for w in WORKLOADS.values():
            with pytest.raises(ValueError, match=r"streaming ratio must be >= 0"):
                recommend_protocol(w, ratio)


class TestBuildReport:
    def test_aggregates(self):
        report = build_report(CodeParams(27), WORKLOADS["constrained"])
        assert report.physical_qubits == 1457
        assert report.recommended_protocol.label == "15-to-1"
        assert report.distilled_output_error == 3.5e-11
        obj = report.to_json()
        assert obj["recommended_protocol"]["cost_per_state_d3"] == 6.3
