"""Magic-state distillation scheduling against a T-state demand.

A distillation protocol is characterized by its surface-code tile count
D, steps per round S, output states per successful round k, and raw
input states consumed N.  For raw input error rate p the round success
probability is (1 - p)^N and the effective latency per distilled state
is S / (k * P_s).

Schedules are ordered sequences of protocol rounds in a sequential
single-factory model: tile_time sums D*S over rounds, expected_latency
sums S / P_s (success-or-retry in expectation), and peak_tiles is the
largest single-round footprint.  Four planners are provided: exhaustive
enumeration up to a round budget, an exact tile-minimal dynamic program
that reproduces the enumeration optimum, a static greedy rule
argmin(D/k + S), and a seeded random baseline that commits to one
protocol.

The dynamic program is an unbounded min-cost knapsack over states
delivered (Martello & Toth, Knapsack Problems, 1990, ch. 3), in
O(M * |P|) for demand M: best[s] = min over p of
best[max(0, s - k_p)] + (D_p * S_p, 1), keyed lexicographically on
(tile cost, rounds), names in sorted order, a choice replaced only by
a strictly smaller key.  That picks, at every step, the parent the
bounded (rounds, states) table picks, since a cheaper or shorter
prefix would give a better schedule within the bound.  Only when the
unbounded optimum needs more rounds than the bound does the
(L+1) x (M+1) x |P| table run, and only it can hit the tractability
guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .circuits import SCHEMA_VERSION

OBJECTIVES = ("tiles", "latency", "balanced")

ENUMERATION_GUARD = 10_000_000


class InfeasibleScheduleError(RuntimeError):
    """No schedule can satisfy the demand within the given bounds."""


class EnumerationGuardError(RuntimeError):
    """The requested search space exceeds the tractability guard."""


@dataclass(frozen=True)
class Protocol:
    name: str
    tiles: int
    steps: int
    outputs: int
    raw_inputs: int
    error_coeff: float
    error_exp: int

    def __post_init__(self):
        if min(self.tiles, self.steps, self.outputs, self.raw_inputs) <= 0:
            raise ValueError(f"protocol {self.name}: all counts must be positive")
        if self.error_exp < 1:
            raise ValueError(f"protocol {self.name}: error exponent must be >= 1")


@dataclass(frozen=True)
class Demand:
    states_required: int
    p_raw: float = 0.0

    def __post_init__(self):
        if self.states_required < 1:
            raise ValueError("demand must be at least one magic state")
        if not 0 <= self.p_raw < 1:
            raise ValueError("raw error rate must be in [0, 1)")


@dataclass(frozen=True)
class Schedule:
    rounds: tuple[str, ...]
    states_delivered: int
    peak_tiles: int
    total_steps: int
    tile_time: int
    expected_latency: float
    feasible: bool

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "rounds": list(self.rounds),
            "metrics": {
                "states_delivered": self.states_delivered,
                "peak_tiles": self.peak_tiles,
                "total_steps": self.total_steps,
                "tile_time": self.tile_time,
                "expected_latency": self.expected_latency,
            },
            "feasible": self.feasible,
        }


def success_probability(protocol: Protocol, p_raw: float) -> float:
    if not 0 <= p_raw < 1:
        raise ValueError("raw error rate must be in [0, 1)")
    return (1.0 - p_raw) ** protocol.raw_inputs


def effective_latency(protocol: Protocol, p_raw: float) -> float:
    """Expected steps per distilled state: S / (k * P_s)."""
    return protocol.steps / (
        protocol.outputs * success_probability(protocol, p_raw)
    )


def _by_name(catalog: Iterable[Protocol]) -> dict[str, Protocol]:
    out: dict[str, Protocol] = {}
    for p in catalog:
        if p.name in out:
            raise ValueError(f"duplicate protocol name {p.name!r}")
        out[p.name] = p
    if not out:
        raise ValueError("empty protocol catalog")
    return out


def evaluate(
    rounds: Sequence[str], catalog: Iterable[Protocol], demand: Demand
) -> Schedule:
    """Recompute all metrics for a round list; pure and reproducible."""
    protos = _by_name(catalog)
    delivered = steps = tile_time = 0
    peak = 0
    latency = 0.0
    for name in rounds:
        if name not in protos:
            raise KeyError(f"unknown protocol {name!r}")
        p = protos[name]
        delivered += p.outputs
        steps += p.steps
        tile_time += p.tiles * p.steps
        peak = max(peak, p.tiles)
        latency += p.steps / success_probability(p, demand.p_raw)
    return Schedule(
        rounds=tuple(rounds),
        states_delivered=delivered,
        peak_tiles=peak,
        total_steps=steps,
        tile_time=tile_time,
        expected_latency=latency,
        feasible=delivered >= demand.states_required,
    )


def _objective_key(objective: str):
    if objective == "tiles":
        return lambda s: (s.tile_time, s.total_steps, s.rounds)
    if objective == "latency":
        return lambda s: (s.expected_latency, s.tile_time, s.rounds)
    raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def brute_force(
    catalog: Iterable[Protocol],
    demand: Demand,
    max_rounds: int,
    objective: str = "tiles",
    weight: float = 0.5,
) -> Schedule:
    """Optimal feasible schedule over all round sequences up to max_rounds.

    All metrics are order-independent, so the search enumerates round
    multisets; ties break toward the lexicographically least round list.

    The enumeration guard is conservative: it bounds |P|^L, the number
    of ordered round sequences, while the search visits only the
    multisets of each length l <= L, C(|P|+l-1, l) of them.  For 10
    protocols and L = 8 the guard rejects 10^8 sequences although the
    search would visit only 43757 multisets.
    """
    protos = _by_name(catalog)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if len(protos) ** max_rounds > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"|catalog|^L = {len(protos)}^{max_rounds} exceeds "
            f"{ENUMERATION_GUARD}"
        )
    names = sorted(protos)
    feasible: list[Schedule] = []
    for length in range(1, max_rounds + 1):
        for combo in itertools.combinations_with_replacement(names, length):
            sched = evaluate(combo, protos.values(), demand)
            if sched.feasible:
                feasible.append(sched)
    if not feasible:
        raise InfeasibleScheduleError(
            f"no feasible schedule within {max_rounds} rounds for demand "
            f"{demand.states_required}"
        )
    if objective == "balanced":
        return min(feasible, key=_balanced_key(feasible, weight))
    return min(feasible, key=_objective_key(objective))


def _balanced_key(feasible: list[Schedule], weight: float):
    if not 0 <= weight <= 1:
        raise ValueError("balanced weight must be in [0, 1]")
    tt = [s.tile_time for s in feasible]
    el = [s.expected_latency for s in feasible]
    tt_lo, tt_span = min(tt), max(tt) - min(tt)
    el_lo, el_span = min(el), max(el) - min(el)

    def norm(value: float, lo: float, span: float) -> float:
        return (value - lo) / span if span > 0 else 0.0

    def key(s: Schedule):
        combined = weight * norm(s.tile_time, tt_lo, tt_span) + (
            1 - weight
        ) * norm(s.expected_latency, el_lo, el_span)
        return (combined, s.tile_time, s.rounds)

    return key


def dp_schedule(
    catalog: Iterable[Protocol],
    demand: Demand,
    objective: str = "tiles",
    max_rounds: int | None = None,
) -> Schedule:
    """Exact tile-minimal schedule via dynamic programming in O(M * |P|).

    The main path is a 1-D min-cost knapsack over s = 0..M states
    delivered (capped at the demand M).  best[s] is the least key
    (tile cost, rounds) of any round list that delivers at least s:
    best[0] = (0, 0) and

        best[s] = min over p of best[max(0, s - k_p)] + (D_p * S_p, 1),

    with names visited in sorted order and only a strictly smaller key
    replacing the current choice.  If best[M] needs at most max_rounds
    rounds (default M), its rounds are rebuilt from the stored choices.

    This is the schedule of the bounded 2-D table (_dp_table), which
    takes the fewest rounds i among the minimum-cost entries C(i, M).
    Any key best[s] below the 2-D path's (cost, rounds) at one of its
    cells, followed by the rest of that path, would be a round list
    within the bound of lower cost, or equal cost in fewer rounds:
    so the 2-D path runs through best[s] at every cell.  At such a
    cell (i, s) of cost C, protocol p attains the 2-D minimum iff
    best[max(0, s - k_p)] = (C - D_p * S_p, i - 1), by the same
    argument, which is the 1-D tie set.  Both walks take the first
    name of equal sets, hence the same parent at every step.

    When best[M] needs more rounds than the bound, the 2-D table
    decides; only that path can raise EnumerationGuardError.  With the
    same round bound this matches brute_force("tiles") exactly.
    """
    if objective != "tiles":
        raise ValueError("the dynamic program supports only the tiles objective")
    protos = _by_name(catalog)
    names = sorted(protos)
    m = demand.states_required
    bound = max_rounds if max_rounds is not None else m
    if bound < 1:
        raise ValueError("round bound must be >= 1")
    moves = [
        (protos[name].outputs, protos[name].tiles * protos[name].steps, name)
        for name in names
    ]
    best = [(0, 0)] * (m + 1)
    choice = [""] * (m + 1)
    for s in range(1, m + 1):
        key = None
        for outputs, cost, name in moves:
            prev_cost, prev_rounds = best[max(0, s - outputs)]
            candidate = (prev_cost + cost, prev_rounds + 1)
            if key is None or candidate < key:
                key = candidate
                choice[s] = name
        best[s] = key
    if best[m][1] > bound:
        return _dp_table(protos, names, demand, bound)
    rounds: list[str] = []
    s = m
    while s > 0:
        rounds.append(choice[s])
        s = max(0, s - protos[choice[s]].outputs)
    rounds.reverse()
    return evaluate(rounds, protos.values(), demand)


def _dp_table(
    protos: dict[str, Protocol], names: list[str], demand: Demand, bound: int
) -> Schedule:
    """The bounded 2-D table over (rounds used, states delivered).

    C(i, s) = min over p of C(i-1, max(0, s - k_p)) + D_p * S_p; the
    result takes the fewest rounds among the minimum-cost C(i, M).
    """
    m = demand.states_required
    if (bound + 1) * (m + 1) * len(names) > 50_000_000:
        raise EnumerationGuardError(
            f"DP table of {(bound + 1) * (m + 1)} states over {len(names)} "
            "protocols exceeds the tractability guard"
        )
    inf = float("inf")
    # cost[s] after i rounds; parent pointers for path reconstruction
    cost = [[inf] * (m + 1) for _ in range(bound + 1)]
    parent: dict[tuple[int, int], tuple[int, str]] = {}
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
        raise InfeasibleScheduleError(
            f"no feasible schedule within {bound} rounds for demand {m}"
        )
    rounds: list[str] = []
    i, s = best_i, m
    while i > 0:
        prev_s, name = parent[(i, s)]
        rounds.append(name)
        i, s = i - 1, prev_s
    rounds.reverse()
    return evaluate(rounds, protos.values(), demand)


def greedy_schedule(catalog: Iterable[Protocol], demand: Demand) -> Schedule:
    """Repeat the statically best protocol argmin(D/k + S) until feasible."""
    protos = _by_name(catalog)
    chosen = min(
        protos.values(), key=lambda p: (p.tiles / p.outputs + p.steps, p.name)
    )
    return _repeat_until_feasible(chosen, protos, demand)


def random_baseline(
    catalog: Iterable[Protocol], demand: Demand, seed: int
) -> Schedule:
    """Commit to one uniformly chosen protocol and repeat it until feasible."""
    import random

    protos = _by_name(catalog)
    rng = random.Random(seed)
    chosen = protos[rng.choice(sorted(protos))]
    return _repeat_until_feasible(chosen, protos, demand)


def _repeat_until_feasible(
    chosen: Protocol, protos: dict[str, Protocol], demand: Demand
) -> Schedule:
    """Run `chosen` in as many rounds as it takes to meet the demand."""
    rounds = -(-demand.states_required // chosen.outputs)
    return evaluate([chosen.name] * rounds, protos.values(), demand)


# -- catalog files ---------------------------------------------------------


def parse_catalog(text: str) -> list[Protocol]:
    """Parse the catalog format: one protocol per line,

        name tiles steps outputs raw_inputs error_coeff error_exp

    with "#" comments and blank lines ignored.
    """
    protocols: list[Protocol] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            raise ValueError(
                f"catalog line {lineno}: expected 7 fields, got {len(fields)}"
            )
        try:
            protocols.append(
                Protocol(
                    name=fields[0],
                    tiles=int(fields[1]),
                    steps=int(fields[2]),
                    outputs=int(fields[3]),
                    raw_inputs=int(fields[4]),
                    error_coeff=float(fields[5]),
                    error_exp=int(fields[6]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from exc
    if not protocols:
        raise ValueError("catalog contains no protocols")
    return protocols


def load_catalog(path: str | Path) -> list[Protocol]:
    return parse_catalog(Path(path).read_text())


def default_catalog() -> list[Protocol]:
    """The shipped catalog: the 15-to-1 and 20-to-4 protocols."""
    text = (
        resources.files("pauliflow").joinpath("data/protocols.cat").read_text()
    )
    return parse_catalog(text)


