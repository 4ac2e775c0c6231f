"""Distillation scheduling: metrics, planners, and catalog files."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pauliflow import scheduling
from pauliflow.scheduling import (
    Demand,
    EnumerationGuardError,
    InfeasibleScheduleError,
    Protocol,
    brute_force,
    default_catalog,
    dp_schedule,
    evaluate,
    greedy_schedule,
    parse_catalog,
    random_baseline,
    success_probability,
)

P15 = Protocol("15-to-1", tiles=11, steps=11, outputs=1, raw_inputs=15,
               error_coeff=35.0, error_exp=3)
P20 = Protocol("20-to-4", tiles=14, steps=17, outputs=4, raw_inputs=20,
               error_coeff=1.0, error_exp=2)
SYNTH = Protocol("7-to-2", tiles=6, steps=9, outputs=2, raw_inputs=7,
                 error_coeff=7.0, error_exp=2)


class TestProtocolMetrics:
    def test_success_probability_at_zero(self):
        assert success_probability(P15, 0.0) == 1.0

    def test_success_probability_15(self):
        assert success_probability(P15, 0.01) == pytest.approx(0.99**15)
        assert success_probability(P15, 0.01) == pytest.approx(
            math.exp(15 * math.log(0.99))
        )

    def test_success_probability_20(self):
        assert success_probability(P20, 0.01) == pytest.approx(0.99**20)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            success_probability(P15, 1.0)
        with pytest.raises(ValueError):
            success_probability(P15, -0.1)


class TestEvaluate:
    def test_two_rounds_15(self):
        s = evaluate(["15-to-1", "15-to-1"], [P15, P20], Demand(2))
        assert s.states_delivered == 2
        assert s.total_steps == 22
        assert s.peak_tiles == 11
        assert s.tile_time == 242
        assert s.feasible

    def test_single_20(self):
        s = evaluate(["20-to-4"], [P15, P20], Demand(4))
        assert (s.states_delivered, s.total_steps, s.peak_tiles, s.tile_time) == (
            4, 17, 14, 238,
        )

    def test_empty_infeasible(self):
        assert not evaluate([], [P15], Demand(1)).feasible

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            evaluate(["3-to-1"], [P15], Demand(1))

    def test_pure_recompute(self):
        s = evaluate(["20-to-4", "15-to-1"], [P15, P20], Demand(5, 0.01))
        again = evaluate(s.rounds, [P15, P20], Demand(5, 0.01))
        assert again == s


class TestBruteForce:
    def test_single_protocol_catalog(self):
        s = brute_force([P15], Demand(3), max_rounds=4)
        assert s.rounds == ("15-to-1",) * 3

    def test_latency_prefers_multi_output(self):
        s = brute_force([P15, P20], Demand(4, 0.0), max_rounds=4,
                        objective="latency")
        assert s.rounds == ("20-to-4",)
        assert s.expected_latency == pytest.approx(17.0)

    def test_tiles_prefers_small_block_for_one_state(self):
        s = brute_force([P15, P20], Demand(1), max_rounds=2, objective="tiles")
        assert s.rounds == ("15-to-1",)
        assert s.tile_time == 121

    def test_infeasible_within_budget(self):
        with pytest.raises(InfeasibleScheduleError):
            brute_force([P15], Demand(5), max_rounds=2)

    def test_guard(self):
        catalog = [
            Protocol(f"p{i}", 1, 1, 1, 1, 1.0, 1) for i in range(10)
        ]
        with pytest.raises(EnumerationGuardError):
            brute_force(catalog, Demand(1), max_rounds=8)

    def test_guard_admits_exactly_its_size(self, monkeypatch):
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1024)
        assert brute_force([P15, P20], Demand(1), max_rounds=10).feasible
        with pytest.raises(EnumerationGuardError, match=r"2\^11, over the guard"):
            brute_force([P15, P20], Demand(1), max_rounds=11)

    def test_guard_bounds_one_protocol_search(self, monkeypatch):
        # 1^L = 1 sequence, but L multisets of up to L rounds each
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1000)
        assert brute_force([P15], Demand(1), max_rounds=44).rounds == ("15-to-1",)
        with pytest.raises(EnumerationGuardError, match="L\\(L\\+1\\)/2 = 1035"):
            brute_force([P15], Demand(1), max_rounds=45)

    def test_balanced_objective_feasible(self):
        s = brute_force([P15, P20], Demand(4), max_rounds=4,
                        objective="balanced", weight=0.5)
        assert s.feasible

    def test_multiset_search_matches_ordered_enumeration(self):
        # metrics are order independent, so searching round multisets must
        # give the same optimum as enumerating every ordered sequence
        catalog = {p.name: p for p in (P15, P20)}
        for m in range(1, 7):
            demand = Demand(m, 0.01)
            best_tiles = None
            best_latency = None
            for length in range(1, 5):
                for seq in itertools.product(sorted(catalog), repeat=length):
                    s = evaluate(seq, catalog.values(), demand)
                    if not s.feasible:
                        continue
                    if best_tiles is None or (
                        s.tile_time, s.total_steps
                    ) < (best_tiles.tile_time, best_tiles.total_steps):
                        best_tiles = s
                    if best_latency is None or (
                        s.expected_latency, s.tile_time
                    ) < (best_latency.expected_latency, best_latency.tile_time):
                        best_latency = s
            bf_tiles = brute_force(catalog.values(), demand, 4, "tiles")
            bf_latency = brute_force(catalog.values(), demand, 4, "latency")
            assert bf_tiles.tile_time == best_tiles.tile_time
            assert bf_latency.expected_latency == pytest.approx(
                best_latency.expected_latency
            )


class TestDpSchedule:
    def test_single_protocol_matches_brute(self):
        dp = dp_schedule([P15], Demand(3))
        bf = brute_force([P15], Demand(3), max_rounds=4)
        assert dp.tile_time == bf.tile_time

    def test_m4_prefers_20_to_4(self):
        dp = dp_schedule([P15, P20], Demand(4))
        assert dp.tile_time == 238
        assert sorted(dp.rounds) == ["20-to-4"]

    def test_m5_mixes(self):
        dp = dp_schedule([P15, P20], Demand(5))
        assert dp.tile_time == 359
        assert sorted(dp.rounds) == ["15-to-1", "20-to-4"]

    def test_matches_brute_force_on_grid(self):
        protos = [P15, P20, SYNTH]
        for size in (1, 2, 3):
            for catalog in itertools.combinations(protos, size):
                for m in range(1, 9):
                    for rounds in range(1, 7):
                        demand = Demand(m)
                        try:
                            bf = brute_force(catalog, demand, rounds)
                        except InfeasibleScheduleError:
                            with pytest.raises(InfeasibleScheduleError):
                                dp_schedule(catalog, demand, max_rounds=rounds)
                            continue
                        dp = dp_schedule(catalog, demand, max_rounds=rounds)
                        assert dp.tile_time == bf.tile_time

    def test_round_bound_respected(self):
        with pytest.raises(InfeasibleScheduleError):
            dp_schedule([P15], Demand(5), max_rounds=2)

    def test_memory_per_state(self):
        # one integer key and one pick a state, about 60 bytes; a
        # (cost, rounds) tuple a state reads 144 bytes, 27.4 MiB
        catalog = default_catalog()
        tracemalloc.start()
        try:
            dp_schedule(catalog, Demand(200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"{peak / 200_001:.0f} bytes a state"


def _dp_table_reference(catalog, demand, max_rounds=None):
    """The (rounds, states) table dp_schedule filled before its 1-D pass.

    cost[i][s] is the least D*S sum of exactly i rounds delivering at
    least s states; the schedule takes the fewest rounds among the
    minimum-cost cost[i][M], names visited in sorted order.
    """
    protos = {p.name: p for p in catalog}
    names = sorted(protos)
    m = demand.states_required
    bound = max_rounds if max_rounds is not None else m
    inf = float("inf")
    cost = [[inf] * (m + 1) for _ in range(bound + 1)]
    parent = {}
    cost[0][0] = 0.0
    for i in range(1, bound + 1):
        for s in range(m + 1):
            best = inf
            best_choice = None
            for name in names:
                p = protos[name]
                prev_s = max(0, s - p.outputs)
                c = cost[i - 1][prev_s] + p.tiles * p.steps
                if c < best:
                    best = c
                    best_choice = (prev_s, name)
            cost[i][s] = best
            if best_choice is not None and best < inf:
                parent[(i, s)] = best_choice
    best_i = None
    best_cost = inf
    for i in range(1, bound + 1):
        if cost[i][m] < best_cost:
            best_cost = cost[i][m]
            best_i = i
    if best_i is None:
        raise InfeasibleScheduleError("no feasible schedule")
    rounds = []
    i, s = best_i, m
    while i > 0:
        prev_s, name = parent[(i, s)]
        rounds.append(name)
        i, s = i - 1, prev_s
    rounds.reverse()
    return evaluate(rounds, catalog, demand)


_small = st.integers(1, 5)
_catalogs = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), _small, _small, _small),
    min_size=1, max_size=4, unique_by=lambda t: t[0],
).map(lambda specs: [
    Protocol(name, tiles=d, steps=s, outputs=k, raw_inputs=1,
             error_coeff=1.0, error_exp=1)
    for name, d, s, k in specs
])


class TestDpAgainstTable:
    """dp_schedule against the 2-D table it replaced as its main path."""

    @settings(max_examples=300, deadline=None)
    @given(_catalogs, st.integers(1, 40), st.sampled_from([1, 2, 3, 6, "M", None]))
    def test_matches_table(self, catalog, m, bound):
        demand = Demand(m)
        max_rounds = m if bound == "M" else bound
        try:
            expected = _dp_table_reference(catalog, demand, max_rounds)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                dp_schedule(catalog, demand, max_rounds=max_rounds)
            return
        assert dp_schedule(catalog, demand, max_rounds=max_rounds) == expected

    def test_default_catalog_compile_deep_shape(self):
        catalog = default_catalog()
        demand = Demand(400)
        assert dp_schedule(catalog, demand, max_rounds=400) == (
            _dp_table_reference(catalog, demand, 400)
        )

    def test_guard_still_fires_on_fallback(self):
        # the unbounded optimum needs 10 000 rounds, one more than the
        # bound, so the bounded table decides and it is too large
        with pytest.raises(EnumerationGuardError):
            dp_schedule([P15], Demand(10_000), max_rounds=9_999)


def test_scheduler_comparison_script_dp_is_exact():
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(repo / "scripts" / "scheduler_comparison.py"),
         "--max-demand", "6"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    dp_row = next(line for line in out.splitlines() if line.split()[:1] == ["dp"])
    assert dp_row.split()[1:] == ["0.0%", "(max", "0.0%)"] * 2


class TestGreedy:
    def test_criterion_selects_20_to_4(self):
        # D/k + S: 11/1 + 11 = 22 vs 14/4 + 17 = 20.5
        s = greedy_schedule([P15, P20], Demand(4))
        assert s.rounds == ("20-to-4",)

    def test_singleton(self):
        s = greedy_schedule([P15], Demand(2))
        assert s.rounds == ("15-to-1", "15-to-1")

    def test_overshoot(self):
        s = greedy_schedule([P15, P20], Demand(5))
        assert s.rounds == ("20-to-4", "20-to-4")
        assert s.states_delivered == 8

    def test_latency_never_beats_brute_force(self):
        for m in range(1, 9):
            bf = brute_force([P15, P20, SYNTH], Demand(m, 0.01), max_rounds=6,
                             objective="latency")
            greedy = greedy_schedule([P15, P20, SYNTH], Demand(m, 0.01))
            assert greedy.expected_latency >= bf.expected_latency - 1e-12

    def test_empty_catalog(self):
        with pytest.raises(ValueError):
            greedy_schedule([], Demand(1))


class TestRandomBaseline:
    def test_reproducible(self):
        a = random_baseline([P15, P20], Demand(6), seed=42)
        b = random_baseline([P15, P20], Demand(6), seed=42)
        assert a == b

    def test_singleton_catalog(self):
        s = random_baseline([P20], Demand(6), seed=0)
        assert s.rounds == ("20-to-4", "20-to-4")

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            Demand(0)


def test_repeat_planners_match_round_loop():
    # reference: add rounds of the chosen protocol until the delivered
    # states meet the demand
    catalog = [P15, P20, SYNTH]
    by_name = {p.name: p for p in catalog}
    for m in range(1, 41):
        demand = Demand(m, 0.01)
        plans = [greedy_schedule(catalog, demand)] + [
            random_baseline(catalog, demand, seed) for seed in range(6)
        ]
        for plan in plans:
            chosen = by_name[plan.rounds[0]]
            rounds, delivered = [], 0
            while delivered < m:
                rounds.append(chosen.name)
                delivered += chosen.outputs
            assert plan == evaluate(rounds, catalog, demand)


@pytest.mark.parametrize("plan", [
    lambda d: dp_schedule([P15, P20], d),
    lambda d: greedy_schedule([P15, P20], d),
    lambda d: random_baseline([P15, P20], d, seed=0),
], ids=["dp", "greedy", "random"])
def test_demand_guard_comes_before_allocation(plan, monkeypatch):
    monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1000)
    with pytest.raises(EnumerationGuardError, match="demand 100000: "):
        plan(Demand(100_000))


def test_demand_guard_admits_exactly_its_size(monkeypatch):
    monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 1000)
    assert dp_schedule([P15, P20], Demand(499)).feasible  # 500 x 2 cells
    with pytest.raises(EnumerationGuardError, match="demand 500: 1002 DP cells"):
        dp_schedule([P15, P20], Demand(500))
    assert len(greedy_schedule([P15], Demand(1000)).rounds) == 1000
    with pytest.raises(EnumerationGuardError, match="1001 rounds of 15-to-1"):
        greedy_schedule([P15], Demand(1001))


# a cheap one-state protocol that the 1-D optimum takes every round, and
# a dear five-state one that a tight round bound forces in, so the
# bounded table decides
TIGHT = [Protocol("a", 1, 1, 1, 1, 1.0, 1), Protocol("b", 10, 10, 5, 1, 1.0, 1)]


class TestExactPlannersBeforeSearch:
    def test_bounded_table_answers_to_the_guard(self, monkeypatch):
        # (45 + 1) x (200 + 1) x 2 = 18 492 table cells
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 18_492)
        assert len(dp_schedule(TIGHT, Demand(200), max_rounds=45).rounds) == 44
        monkeypatch.setattr(scheduling, "ENUMERATION_GUARD", 10_000)
        with pytest.raises(EnumerationGuardError,
                           match="demand 200 within 45 rounds: 18492 DP table cells"):
            dp_schedule(TIGHT, Demand(200), max_rounds=45)

    @pytest.mark.parametrize("plan", [dp_schedule, brute_force],
                             ids=["dp", "brute"])
    def test_feasible_iff_the_most_outputs_fit(self, plan):
        # 3 rounds of 20-to-4 deliver 12 states and nothing delivers 13
        assert plan([P15, P20], Demand(12), 3).states_delivered == 12
        with pytest.raises(InfeasibleScheduleError,
                           match="within 3 rounds for demand 13"):
            plan([P15, P20], Demand(13), 3)

    def test_dp_refuses_an_infeasible_demand_before_the_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleScheduleError,
                               match="within 599 rounds for demand 600"):
                dp_schedule([P15], Demand(600), max_rounds=599)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_brute_refuses_an_infeasible_demand_before_the_search(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(scheduling, "evaluate", counting)
        with pytest.raises(InfeasibleScheduleError,
                           match="within 100 rounds for demand 101"):
            brute_force([P15], Demand(101), 100)
        assert calls == []


class TestCatalogFiles:
    def test_default_catalog(self):
        catalog = {p.name: p for p in default_catalog()}
        assert catalog["15-to-1"] == P15
        assert catalog["20-to-4"] == P20

    def test_parse_rejects_short_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_catalog("15-to-1 11 11\n")

    def test_parse_with_comments(self):
        catalog = parse_catalog("# c\n15-to-1 11 11 1 15 35 3\n")
        assert catalog[0] == P15

    def test_validation(self):
        with pytest.raises(ValueError):
            Protocol("bad", tiles=0, steps=1, outputs=1, raw_inputs=1,
                     error_coeff=1.0, error_exp=1)
