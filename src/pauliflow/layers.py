"""Commuting-layer partitioning and T-depth reduction.

A Layering splits an ordered list of pi/8 rotations into layers whose
members pairwise commute; the layer count is the T-depth of that
arrangement.  A valid layering only reorders commuting rotations: for
anticommuting rotations i < j, the layer of i comes strictly before the
layer of j (`Layering.validate`).

Every commutation question reads one matrix, `Layering.commute_rows`
(bit j of the int row i set iff axes i and j commute), cached on the
layering and on every layering derived from it: the complement of the
package's one commutation kernel, `pauli.anticommutation_rows`.

Every layer move reads one floor walk, `_floor`: rotations that
anticommute with an index set A may sink below a layer until some
layer holds a member of A.  The default optimizer, the ASAP layering
(`build_layers`, `asap_optimize`), puts each rotation on that floor,
one layer after its last anticommuting predecessor, so its depth is
the length of the longest chain i1 < i2 < ... < ik of rotations in
which each anticommutes with the next.  Every valid layering must
place such a chain in strictly increasing layers, so ASAP is provably
optimal under commutation-only reordering.

Two merge-based optimizers are kept as baselines from the paper.
Collapsing a layer pair (i, j) moves the later layer's rotations
earlier in time past every intermediate layer, so validity requires
more than the merged pair commuting internally: layer j must commute
element-wise with every layer k for i <= k < j.  (Checking k = i covers
the union condition, since within-layer pairs already commute.)  So
(i, j) merges iff i >= layer j's floor.  The dense-oracle equivalence
tests enforce this rule.  Every layering they
reach is a valid reordering, so neither ends below the ASAP depth.
Candidate pairs are scored by

    score(i, j) = 1 - |D_i - D_j| + beta * (T_max - (T_i + T_j))

with T_k the rotation count of layer k, D_k = T_k / n, and T_max the
largest layer: a greedy maximal matching of highest-scoring disjoint
pairs, and a genetic algorithm whose individuals are disjoint merge
sets, fitness equal to the merge count, elitism preserving the greedy
seed, crossover by union-then-repair, and mutation by partial reset
plus greedy refill.  All randomness derives from (seed, round,
generation, index), so results are reproducible and independent of
evaluation order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .circuits import PauliRotation
from .pauli import PauliString, anticommutation_rows, set_bits
from .scheduling import _guard


@dataclass
class Layering:
    """Partition of pi/8 rotations into ordered commuting layers."""

    n: int
    rotations: tuple[PauliRotation, ...]
    layers: tuple[tuple[int, ...], ...]
    _commute_rows: list[int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def t_depth(self) -> int:
        return len(self.layers)

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def commute_rows(self) -> list[int]:
        """Bitmask rows: bit j of row i set iff axes i and j commute,
        the complement of `anticommutation_rows` over the axes."""
        if self._commute_rows is None:
            axes = [r.axis for r in self.rotations]
            full = (1 << len(axes)) - 1
            self._commute_rows = [full ^ a for a in anticommutation_rows(axes, axes)]
        return self._commute_rows

    def validate(self):
        """Check the partition, non-empty layers, within-layer commutation, order rule.

        The order rule: for anticommuting rotations i < j, the layer of i
        comes strictly before the layer of j.  Commuting rotations may be
        reordered freely; anticommuting ones may not.
        """
        seen = sorted(i for layer in self.layers for i in layer)
        if seen != list(range(len(self.rotations))):
            raise ValueError("layers do not partition the rotation indices")
        rows = self.commute_rows()
        earlier = 0  # bitmask of the indices placed in earlier layers
        for p, layer in enumerate(self.layers):
            if not layer:
                raise ValueError(f"layer {p} is empty")
            here = sum(1 << j for j in layer)
            for j in layer:
                # anticommuting partners that share j's layer, or that
                # precede j in the input but not in the layering
                bad = ~rows[j] & ~earlier & (here | ((1 << j) - 1))
                if bad:
                    i = bad.bit_length() - 1
                    if here >> i & 1:
                        raise ValueError(
                            f"rotations {min(i, j)} and {max(i, j)} share a "
                            f"layer but anticommute (layer {p})"
                        )
                    raise ValueError(
                        f"rotation {j} anticommutes with earlier rotation {i} "
                        "but is not in a later layer"
                    )
            earlier |= here

    def _derived(self, new_layers: tuple[tuple[int, ...], ...]) -> "Layering":
        return Layering(self.n, self.rotations, new_layers, self._commute_rows)


@dataclass(frozen=True)
class MergeSet:
    """Disjoint set of mergeable layer-index pairs (i, j), i < j."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        used: set[int] = set()
        for i, j in self.pairs:
            if i >= j:
                raise ValueError(f"merge pair must have i < j, got ({i}, {j})")
            if i in used or j in used:
                raise ValueError("merge pairs share a layer index")
            used.update((i, j))

    def __len__(self) -> int:
        return len(self.pairs)


def singleton_layering(rotations) -> Layering:
    """One layer per rotation, in circuit order (the raw T-depth)."""
    rotations = tuple(rotations)
    if not rotations:
        raise ValueError("cannot layer an empty rotation list")
    n = rotations[0].axis.n
    for r in rotations:
        if not r.is_pi8:
            raise ValueError(f"layer optimizer only accepts pi/8 rotations, got {r}")
        if r.axis.n != n:
            raise ValueError(f"qubit count mismatch: {r.axis.n} vs {n}")
    return Layering(n, rotations, tuple((i,) for i in range(len(rotations))))


def _floor(masks: list[int], anti: int, top: int) -> int:
    """The lowest p <= top such that layers p..top-1 (masks[p]: bitmask
    of layer p's indices) hold no index of `anti`."""
    while top and not masks[top - 1] & anti:
        top -= 1
    return top


def build_layers(rotations) -> Layering:
    """ASAP layering, deterministic in input order and of minimum depth.

    Each rotation lands on its floor: one layer after the highest layer
    that holds an anticommuting predecessor, read from the bitmask rows
    of `commute_rows`.  The rows stay cached on the result.
    """
    l = singleton_layering(rotations)
    masks: list[int] = []
    for j, row in enumerate(l.commute_rows()):
        p = _floor(masks, ~row & ((1 << j) - 1), len(masks))
        if p == len(masks):
            masks.append(0)
        masks[p] |= 1 << j
    return l._derived(tuple(tuple(set_bits(mask)) for mask in masks))


def _floors(l: Layering):
    """floor(j): the `_floor` below layer j of the OR of ~commute_rows[r]
    over its members r; layers i < j merge iff i >= floor(j)."""
    rows = l.commute_rows()
    masks = [sum(1 << r for r in layer) for layer in l.layers]

    def floor(j: int) -> int:
        anti = 0
        for r in l.layers[j]:
            anti |= ~rows[r]
        return _floor(masks, anti, j)

    return floor


def mergeable(l: Layering, i: int, j: int) -> bool:
    """True iff layers i < j can be collapsed into one layer at position i."""
    if not (0 <= i < j < len(l.layers)):
        raise IndexError(f"layer pair ({i}, {j}) out of range")
    return i >= _floors(l)(j)


def all_mergeable_pairs(l: Layering) -> list[tuple[int, int]]:
    """Every valid (i, j): i from j - 1 down to layer j's floor."""
    floor = _floors(l)
    return [(i, j) for j in range(1, len(l.layers))
            for i in range(j - 1, floor(j) - 1, -1)]


def _score(l: Layering, i: int, j: int, beta: float, t_max: int) -> float:
    t_i, t_j = len(l.layers[i]), len(l.layers[j])
    return 1.0 - abs(t_i - t_j) / l.n + beta * (t_max - (t_i + t_j))


def _ranked_pairs(l: Layering, beta: float) -> list[tuple[int, int]]:
    """Mergeable pairs sorted by descending score, ties by (i, j)."""
    t_max = max(l.layer_sizes())
    pairs = all_mergeable_pairs(l)
    return sorted(pairs, key=lambda p: (-_score(l, p[0], p[1], beta, t_max), p))


def _greedy_from(ordered_pairs) -> frozenset[tuple[int, int]]:
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []
    for i, j in ordered_pairs:
        if i not in used and j not in used:
            used.update((i, j))
            chosen.append((i, j))
    return frozenset(chosen)


def greedy_matching(l: Layering, beta: float = 0.5) -> MergeSet:
    """Maximal non-overlapping matching of highest-scoring mergeable pairs."""
    return MergeSet(_greedy_from(_ranked_pairs(l, beta)))


def apply_merges(l: Layering, ms: MergeSet) -> Layering:
    """Union each pair into the earlier index; drop the emptied layers."""
    floor = _floors(l)
    for i, j in ms.pairs:
        if not (0 <= i < j < len(l.layers)):
            raise IndexError(f"layer pair ({i}, {j}) out of range")
        if i < floor(j):
            raise ValueError(f"pair ({i}, {j}) is not mergeable in this layering")
    absorbed = {j: i for i, j in ms.pairs}
    content = {i: list(layer) for i, layer in enumerate(l.layers)}
    for i, j in ms.pairs:
        content[i].extend(content[j])
    new_layers = tuple(
        tuple(content[i]) for i in range(len(l.layers)) if i not in absorbed
    )
    return l._derived(new_layers)


# -- genetic optimizer -----------------------------------------------------


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 64
    elite_k: int = 4
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    beta: float = 0.5
    max_generations: int = 200
    stagnation_limit: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 0 <= self.elite_k < self.population_size:
            raise ValueError("elite_k must satisfy 0 <= elite_k < population_size")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.beta < 1:
            raise ValueError("beta must be in [0, 1)")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be >= 1")
        children = self.population_size * self.max_generations  # in one GA round
        _guard(children, f"population_size * max_generations = {self.population_size}"
                         f" * {self.max_generations} = {children} GA children")


@dataclass
class OptimizeResult:
    layering: Layering
    initial_t_depth: int
    final_t_depth: int
    merges_per_round: list[int]
    seed: int | None = None
    fitness_history: list[list[int]] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.merges_per_round)

    @property
    def total_merges(self) -> int:
        return sum(self.merges_per_round)

    def report(self) -> dict:
        out = {
            "initial_t_depth": self.initial_t_depth,
            "final_t_depth": self.final_t_depth,
            "rounds": self.rounds,
            "merges_per_round": list(self.merges_per_round),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


_MUTATION_DROP = 0.3  # per-pair removal probability inside mutation


def _derive_seed(*parts: int) -> int:
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 % (1 << 64)
        h ^= h >> 31
    return h


def _random_matching(pairs, rng: random.Random) -> frozenset[tuple[int, int]]:
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    return _greedy_from(shuffled)


def _pop_key(ind: frozenset[tuple[int, int]]):
    return (-len(ind), tuple(sorted(ind)))


def _collapse(l: Layering, beta: float, pick) -> tuple[Layering, list[int]]:
    """Merge rounds: rank the mergeable pairs, apply the merge set
    `pick(ranked, round)` returns, until no pair remains or it is empty."""
    current, merges_per_round = l, []
    for round_idx in range(l.t_depth):
        ranked = _ranked_pairs(current, beta)
        chosen = ranked and pick(ranked, round_idx)
        if not chosen:
            break
        merges_per_round.append(len(chosen))
        current = apply_merges(current, MergeSet(chosen))
    return current, merges_per_round


def ga_optimize(l: Layering, cfg: GAConfig = GAConfig()) -> OptimizeResult:
    """Repeated GA rounds: evolve a high-fitness merge set, apply, rebuild.

    Each round seeds the population with the greedy matching plus random
    matchings; elitism guarantees the applied merge set is at least as
    large as the greedy one.  Stops when no mergeable pair remains.
    """
    history: list[list[int]] = []
    final, merges = _collapse(
        l, cfg.beta, lambda ranked, r: _ga_round(ranked, cfg, r, history)
    )
    return OptimizeResult(final, l.t_depth, final.t_depth, merges, cfg.seed, history)


def _ga_round(
    ranked: list[tuple[int, int]],
    cfg: GAConfig,
    round_idx: int,
    history: list[list[int]],
) -> frozenset[tuple[int, int]]:
    rank_of = {pair: pos for pos, pair in enumerate(ranked)}

    def repair(pairset) -> frozenset[tuple[int, int]]:
        # keep higher-scored pairs when endpoints conflict
        return _greedy_from(sorted(pairset, key=rank_of.__getitem__))

    def refill(kept: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        # kept is disjoint, so all of it survives; ranked pairs fill the rest
        return _greedy_from([*kept, *ranked])

    population = [_greedy_from(ranked)]
    for k in range(cfg.population_size - 1):
        rng = random.Random(_derive_seed(cfg.seed, round_idx, -1, k))
        population.append(_random_matching(ranked, rng))
    best = min(population, key=_pop_key)
    round_history = [len(best)]
    stall = 0
    for gen in range(cfg.max_generations):
        population.sort(key=_pop_key)
        next_pop = population[: cfg.elite_k]
        for k in range(cfg.population_size - cfg.elite_k):
            rng = random.Random(_derive_seed(cfg.seed, round_idx, gen, k))
            parent_a = _tournament(population, rng)
            if rng.random() < cfg.crossover_rate:
                parent_b = _tournament(population, rng)
                child = repair(parent_a | parent_b)
            else:
                child = parent_a
            if rng.random() < cfg.mutation_rate:
                kept = frozenset(
                    pair for pair in sorted(child) if rng.random() > _MUTATION_DROP
                )
                child = refill(kept)
            next_pop.append(child)
        population = next_pop
        gen_best = min(population, key=_pop_key)
        if len(gen_best) > len(best):
            best = gen_best
            stall = 0
        else:
            stall += 1
        round_history.append(len(best))
        if stall >= cfg.stagnation_limit:
            break
    history.append(round_history)
    return best


def _tournament(population, rng: random.Random, size: int = 3):
    k = min(size, len(population))
    idxs = rng.sample(range(len(population)), k)
    return population[min(idxs, key=lambda i: (-len(population[i]), i))]


def greedy_collapse(l: Layering, beta: float = 0.5) -> OptimizeResult:
    """Baseline: apply greedy matchings until no mergeable pair remains."""
    final, merges = _collapse(l, beta, lambda ranked, _: _greedy_from(ranked))
    return OptimizeResult(final, l.t_depth, final.t_depth, merges)


def asap_optimize(l: Layering) -> OptimizeResult:
    """Default optimizer: the ASAP layering of `l`'s rotations.

    Its depth is the longest anticommutation chain, a lower bound for
    every valid layering, so no merge rounds are needed.
    """
    asap = build_layers(l.rotations) if l.rotations else l
    return OptimizeResult(asap, l.t_depth, asap.t_depth, [])


# -- synthetic instances ---------------------------------------------------


def dense_random_rotations(
    n_qubits: int, count: int, seed: int
) -> list[PauliRotation]:
    """Maximal-density instance: every axis acts on every qubit."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        label = "".join(rng.choice("XYZ") for _ in range(n_qubits))  # qubit 0 first
        out.append(PauliRotation(PauliString.from_label(label), rng.choice((1, -1)), 8))
    return out


def random_rotations(n_qubits: int, count: int, seed: int) -> list[PauliRotation]:
    """Random pi/8 rotations with uniform non-identity axes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = rng.getrandbits(n_qubits)
        z = rng.getrandbits(n_qubits)
        if x == 0 and z == 0:
            continue
        num = rng.choice((1, -1, 3, -3))
        out.append(PauliRotation(PauliString(n_qubits, x, z), num, 8))
    return out
