"""Layering invariants, merge validity, greedy matching, and the GA."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pauliflow.canonical import canonicalize
from pauliflow.circuits import PauliRotation
from pauliflow.layers import (
    GAConfig,
    Layering,
    MergeSet,
    all_mergeable_pairs,
    apply_merges,
    asap_optimize,
    build_layers,
    dense_random_rotations,
    ga_optimize,
    greedy_collapse,
    greedy_matching,
    mergeable,
    random_rotations,
    singleton_layering,
)
from pauliflow.layers import _ga_round, _greedy_from, _score
from pauliflow.oracle import equivalent_up_to_phase, unitary_of_rotations
from pauliflow.pauli import PauliString
from pauliflow.scheduling import EnumerationGuardError
from test_canonical import random_circuit


def rot(label, num=1, den=8):
    return PauliRotation(PauliString.from_label(label), num, den)


def layering_unitary(l: Layering):
    ordered = [l.rotations[i] for layer in l.layers for i in layer]
    return unitary_of_rotations(ordered, l.n)


class TestBuildLayers:
    def test_disjoint_share_layer(self):
        l = build_layers([rot("ZI"), rot("IZ")])
        assert len(l.layers) == 1

    def test_anticommuting_split(self):
        l = build_layers([rot("X"), rot("Z")])
        assert len(l.layers) == 2

    def test_zz_blocks_on_x(self):
        l = build_layers([rot("ZI"), rot("IX"), rot("ZZ")])
        assert len(l.layers) == 2
        l.validate()

    def test_rejects_clifford(self):
        with pytest.raises(ValueError):
            build_layers([rot("Z", den=4)])

    @pytest.mark.parametrize("labels", [("Z", "ZZ"), ("ZZ", "IZ", "X")])
    def test_rejects_mixed_qubit_counts(self, labels):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            build_layers([rot(label) for label in labels])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_partition_and_commutation_invariants(self, seed):
        rotations = random_rotations(3, 12, seed)
        l = build_layers(rotations)
        l.validate()
        assert l.t_depth <= len(rotations)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_asap_layerings_are_fully_packed(self, seed):
        # every rotation in layer p anticommutes with something in layer
        # p-1, so a freshly built layering never has a mergeable pair;
        # only rawer arrangements (e.g. singleton layers) leave slack
        rotations = random_rotations(4, 16, seed)
        assert all_mergeable_pairs(build_layers(rotations)) == []


def pairwise_commute_rows(rotations):
    """Reference: the O(m^2) loop of PauliString.commutes calls."""
    axes = [r.axis for r in rotations]
    rows = [1 << i for i in range(len(axes))]
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            if axes[i].commutes(axes[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


@st.composite
def rotation_lists(draw):
    n = draw(st.integers(1, 80))
    m = draw(st.integers(1, 60))
    out = []
    for _ in range(m):
        x = draw(st.integers(0, (1 << n) - 1))
        z = draw(st.integers(0, (1 << n) - 1))
        out.append(PauliRotation(PauliString(n, x, z or (0 if x else 1)), 1, 8))
    return out


RANDOM_AXES_N = [1, 5, 16, 20, 64, 65, 70, 200]


class TestCommuteRows:
    @given(rotation_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_commutes(self, rotations):
        l = singleton_layering(rotations)
        assert l.commute_rows() == pairwise_commute_rows(rotations)

    @pytest.mark.parametrize("n", RANDOM_AXES_N)
    def test_random_axes(self, n):
        rotations = random_rotations(n, 40, seed=n)
        l = singleton_layering(rotations)
        assert l.commute_rows() == pairwise_commute_rows(rotations)

    # the same checks on the rows build_layers computed and left cached

    @given(rotation_lists())
    @settings(max_examples=200, deadline=None)
    def test_build_layers_caches_pairwise_rows(self, rotations):
        l = build_layers(rotations)
        assert l._commute_rows == pairwise_commute_rows(rotations)

    @pytest.mark.parametrize("n", RANDOM_AXES_N)
    def test_build_layers_random_axes(self, n):
        rotations = random_rotations(n, 40, seed=n)
        l = build_layers(rotations)
        assert l._commute_rows == pairwise_commute_rows(rotations)


def pairwise_asap_layers(rotations):
    """Reference: ASAP placement by pairwise PauliString.commutes calls.

    Scans the layers from the top down and stops at the first one that
    holds an anticommuting rotation.
    """
    layers = []
    axes = [r.axis for r in rotations]
    for idx, axis in enumerate(axes):
        placement = len(layers)
        for pos in range(len(layers) - 1, -1, -1):
            if all(axis.commutes(axes[m]) for m in layers[pos]):
                placement = pos
            else:
                break
        if placement == len(layers):
            layers.append([idx])
        else:
            layers[placement].append(idx)
    return tuple(tuple(layer) for layer in layers)


class TestBuildLayersMatchesPairwise:
    @given(rotation_lists())
    @settings(max_examples=200, deadline=None)
    def test_same_layers(self, rotations):
        assert build_layers(rotations).layers == pairwise_asap_layers(rotations)

    def test_canonical_pi8_of_a_deep_circuit(self):
        gc = random_circuit(16, 2000, random.Random(11))
        pi8 = canonicalize(gc).pi8
        l = build_layers(pi8)
        assert l.layers == pairwise_asap_layers(pi8)
        assert 1 < l.t_depth < len(pi8)
        l.validate()


class TestAsapOptimize:
    def test_report_shape(self):
        rotations = [rot("XI"), rot("ZI"), rot("IZ"), rot("ZZ")]
        result = asap_optimize(singleton_layering(rotations))
        assert result.layering == build_layers(rotations)
        assert result.report() == {
            "initial_t_depth": 4,
            "final_t_depth": 2,
            "rounds": 0,
            "merges_per_round": [],
        }


class TestMergeable:
    def test_adjacent_disjoint(self):
        l = singleton_layering([rot("ZI"), rot("IZ")])
        assert mergeable(l, 0, 1)

    def test_anticommuting_not_mergeable(self):
        l = singleton_layering([rot("X"), rot("Z")])
        assert not mergeable(l, 0, 1)

    def test_intermediate_blocks_merge(self):
        # layer 2 (ZZ) cannot cross layer 1 (IX) to join layer 0 (ZI)
        l = singleton_layering([rot("ZI"), rot("IX"), rot("ZZ")])
        assert not mergeable(l, 0, 2)
        u_before = layering_unitary(l)
        # the rule is what the oracle demands: the illegal reorder is inequivalent
        forced = Layering(l.n, l.rotations, ((0, 2), (1,)))
        assert not equivalent_up_to_phase(u_before, layering_unitary(forced), 1e-9)

    def test_out_of_range(self):
        l = singleton_layering([rot("ZI"), rot("IZ")])
        with pytest.raises(IndexError):
            mergeable(l, 0, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_enumeration_matches_predicate(self, seed):
        # exercise multi-member layers by partially collapsing first
        l = singleton_layering(random_rotations(3, 14, seed))
        ms = greedy_matching(l)
        if ms.pairs:
            l = apply_merges(l, ms)
        expected = [
            (i, j)
            for j in range(1, l.t_depth)
            for i in range(j)
            if mergeable(l, i, j)
        ]
        assert sorted(all_mergeable_pairs(l)) == sorted(expected)


def _mergeable_reference(l: Layering, i: int, j: int) -> bool:
    """The merge rule element-wise: layer j commutes with every layer k,
    i <= k < j, one `PauliString.commutes` call per pair of members."""
    axes = [r.axis for r in l.rotations]
    return all(axes[a].commutes(axes[b])
               for k in range(i, j) for a in l.layers[k] for b in l.layers[j])


class TestMergeRuleReference:
    @given(st.integers(1, 4), st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_elementwise_commutes(self, n, count, seed):
        # singleton layers, then two greedy rounds for multi-member layers
        l = singleton_layering(random_rotations(n, count, seed))
        for _ in range(3):
            expected = [(i, j) for j in range(l.t_depth) for i in range(j)
                        if _mergeable_reference(l, i, j)]
            assert sorted(all_mergeable_pairs(l)) == sorted(expected)
            for j in range(l.t_depth):
                for i in range(j):
                    ok = (i, j) in expected
                    assert mergeable(l, i, j) == ok
                    merge = MergeSet(frozenset({(i, j)}))
                    if ok:
                        assert apply_merges(l, merge).t_depth == l.t_depth - 1
                    else:
                        with pytest.raises(ValueError, match="not mergeable"):
                            apply_merges(l, merge)
            ms = greedy_matching(l)
            if not ms.pairs:
                break
            l = apply_merges(l, ms)


class TestScorePair:
    def test_uniform_density(self):
        l = singleton_layering([rot("ZI"), rot("IZ")])
        # n=2, T_i=T_j=1, T_max=1: 1 - 0 + 0.5*(1-2) = 0.5
        assert _score(l, 0, 1, 0.5, max(l.layer_sizes())) == pytest.approx(0.5)

    def test_formula_values(self):
        # four disjoint single-qubit axes, layers sized 1,3 after a merge
        rots = [rot("ZIII"), rot("IZII"), rot("IIZI"), rot("IIIZ")]
        l = Layering(4, tuple(rots), ((0,), (1, 2, 3)))
        assert _score(l, 0, 1, 0.0, 3) == pytest.approx(1 - abs(0.25 - 0.75))


class TestGreedyMatching:
    def test_all_commuting_four_layers(self):
        l = singleton_layering([rot("ZIII"), rot("IZII"), rot("IIZI"), rot("IIIZ")])
        ms = greedy_matching(l)
        assert len(ms) == 2

    def test_no_mergeable_pairs(self):
        l = singleton_layering([rot("X"), rot("Z"), rot("X"), rot("Z")])
        assert len(greedy_matching(l)) == 0

    def test_three_mutually_mergeable(self):
        l = singleton_layering([rot("ZII"), rot("IZI"), rot("IIZ")])
        assert len(greedy_matching(l)) == 1


class TestApplyMerges:
    def test_single_merge(self):
        l = singleton_layering([rot("ZI"), rot("IZ")])
        merged = apply_merges(l, MergeSet(frozenset({(0, 1)})))
        assert merged.layers == ((0, 1),)

    def test_empty_mergeset(self):
        l = singleton_layering([rot("ZI"), rot("IZ")])
        assert apply_merges(l, MergeSet(frozenset())).layers == l.layers

    def test_two_pairs(self):
        l = singleton_layering([rot("ZIII"), rot("IZII"), rot("IIZI"), rot("IIIZ")])
        merged = apply_merges(l, MergeSet(frozenset({(0, 1), (2, 3)})))
        assert merged.t_depth == 2
        merged.validate()

    def test_invalid_pair_rejected(self):
        l = singleton_layering([rot("X"), rot("Z")])
        with pytest.raises(ValueError):
            apply_merges(l, MergeSet(frozenset({(0, 1)})))

    def test_blocked_by_middle_layer_rejected(self):
        # layer 2 commutes with layer 0 but not with layer 1 between them
        l = singleton_layering([rot("ZI"), rot("XI"), rot("ZI")])
        with pytest.raises(ValueError, match=r"\(0, 2\) is not mergeable"):
            apply_merges(l, MergeSet(frozenset({(0, 2)})))

    def test_one_bad_pair_among_good_rejected(self):
        l = singleton_layering([rot("ZI"), rot("IZ"), rot("XI"), rot("ZI")])
        with pytest.raises(ValueError, match=r"\(2, 3\) is not mergeable"):
            apply_merges(l, MergeSet(frozenset({(0, 1), (2, 3)})))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            MergeSet(frozenset({(0, 1), (1, 2)}))


class TestValidate:
    @pytest.mark.parametrize(
        "labels, layers, message",
        [
            # X then Z, laid out as Z's layer first: a different unitary
            (("X", "Z"), ((1,), (0,)), "rotation 1 anticommutes with earlier rotation 0"),
            (("XI", "IZ", "ZI"), ((2,), (1,), (0,)),
             "rotation 2 anticommutes with earlier rotation 0"),
            (("X", "Z"), ((0, 1),), "share a layer"),
            (("X", "Z"), ((0,),), "partition"),
            (("Z", "X"), ((0,), (), (1,)), "layer 1 is empty"),
        ],
    )
    def test_invalid_layerings_rejected(self, labels, layers, message):
        l = Layering(len(labels[0]), tuple(rot(s) for s in labels), layers)
        with pytest.raises(ValueError, match=message):
            l.validate()

    def test_swapped_commuting_layers_accepted(self):
        Layering(2, (rot("ZI"), rot("IZ")), ((1,), (0,))).validate()

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 24))
    @settings(max_examples=25, deadline=None)
    def test_optimizer_outputs_keep_the_order_rule(self, seed, n, count):
        rotations = random_rotations(n, count, seed)
        cfg = GAConfig(population_size=8, elite_k=2, max_generations=10,
                       stagnation_limit=4, seed=seed)
        asap = build_layers(rotations)
        outputs = [
            asap,
            ga_optimize(singleton_layering(rotations), cfg).layering,
            greedy_collapse(singleton_layering(rotations)).layering,
        ]
        for l in outputs:
            l.validate()
            assert l.t_depth >= asap.t_depth


class TestGaOptimize:
    def small_cfg(self, seed=0):
        return GAConfig(
            population_size=16,
            elite_k=2,
            max_generations=25,
            stagnation_limit=6,
            seed=seed,
        )

    def test_fully_commuting_collapses_to_one_layer(self):
        l = singleton_layering([rot("ZIII"), rot("IZII"), rot("IIZI"), rot("IIIZ")])
        result = ga_optimize(l, self.small_cfg())
        assert result.final_t_depth == 1

    def test_anticommuting_chain_unchanged(self):
        l = singleton_layering([rot("X"), rot("Z"), rot("X"), rot("Z")])
        result = ga_optimize(l, self.small_cfg())
        assert result.final_t_depth == l.t_depth

    def test_deterministic_for_fixed_seed(self):
        rotations = random_rotations(4, 20, 99)
        a = ga_optimize(singleton_layering(rotations), self.small_cfg(5))
        b = ga_optimize(singleton_layering(rotations), self.small_cfg(5))
        assert a.layering.layers == b.layering.layers
        assert a.merges_per_round == b.merges_per_round

    def test_elitism_beats_or_ties_greedy_seed(self):
        for seed in range(8):
            rotations = random_rotations(4, 24, seed)
            l = singleton_layering(rotations)
            ga = ga_optimize(l, self.small_cfg(seed))
            greedy = greedy_matching(l)
            assert ga.total_merges >= len(greedy)

    def test_best_fitness_non_decreasing_within_rounds(self):
        rotations = random_rotations(4, 24, 3)
        result = ga_optimize(singleton_layering(rotations), self.small_cfg(1))
        for round_history in result.fitness_history:
            assert all(
                b >= a for a, b in zip(round_history, round_history[1:])
            )

    def test_round_improves_on_its_initial_best(self):
        # seeded ga_optimize runs on random_rotations never beat a round's
        # initial best, so this ranked list is fed to one round: greedy
        # keeps 3 pairs, and the third generation finds a perfect matching
        ranked = [(1, 4), (0, 6), (3, 5), (1, 7), (4, 5), (6, 7), (1, 3), (4, 7),
                  (1, 2), (5, 7)]
        cfg = GAConfig(population_size=3, elite_k=0, max_generations=10,
                       stagnation_limit=10, seed=30)
        history = []
        best = _ga_round(ranked, cfg, 0, history)
        assert len(_greedy_from(ranked)) == 3
        assert history == [[3, 3, 3] + [4] * 8]
        assert best == {(0, 6), (1, 2), (3, 5), (4, 7)}

    @pytest.mark.parametrize("seed", range(4))
    def test_one_fitness_history_per_applied_round(self, seed):
        # the round that finds no mergeable pair runs no GA and records nothing
        rotations = random_rotations(4, 24, seed)
        result = ga_optimize(singleton_layering(rotations), self.small_cfg(seed))
        assert result.rounds >= 1
        assert len(result.fitness_history) == result.rounds
        assert [h[-1] for h in result.fitness_history] == result.merges_per_round

    @pytest.mark.parametrize("seed", range(12))
    def test_unitary_preserved_and_depth_monotone(self, seed):
        rng = random.Random(seed)
        rotations = random_rotations(rng.randint(1, 4), rng.randint(2, 16), seed)
        l = singleton_layering(rotations)
        before = layering_unitary(l)
        result = ga_optimize(l, self.small_cfg(seed))
        after = result.layering
        after.validate()
        assert after.t_depth <= l.t_depth
        assert sorted(
            i for layer in after.layers for i in layer
        ) == list(range(len(rotations)))
        assert equivalent_up_to_phase(before, layering_unitary(after), 1e-9)


class TestGreedyCollapse:
    def test_reduces_dense_instance(self):
        rotations = dense_random_rotations(20, 40, 0)
        result = greedy_collapse(singleton_layering(rotations))
        assert result.final_t_depth < 40
        result.layering.validate()


class TestGAConfig:
    def test_elite_bound(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=4, elite_k=4)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(beta=1.0)

    def test_children_per_round_bounded_by_the_guard(self):
        # population_size * max_generations children a round, at most the guard
        GAConfig(population_size=10**4, max_generations=10**3)
        with pytest.raises(EnumerationGuardError) as info:
            GAConfig(population_size=10**4 + 1, max_generations=10**3)
        assert str(info.value) == (
            "population_size * max_generations = 10001 * 1000 = 10001000 "
            "GA children, over the guard of 10000000")


def test_ga_tdepth_benchmark_script_asap_is_minimal(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
    )
    rows_path = tmp_path / "rows.json"
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "ga_tdepth_benchmark.py"),
         "--qubits", "8", "--depth", "24", "--seeds", "3",
         "--population-size", "8", "--max-generations", "5",
         "--json", str(rows_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    rows = json.loads(rows_path.read_text())
    assert [row["seed"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["asap"] <= min(row["ga"], row["greedy_iter"], row["greedy_1pass"])
