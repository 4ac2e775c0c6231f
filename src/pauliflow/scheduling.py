"""Magic-state distillation scheduling against a T-state demand.

A distillation protocol is characterized by its surface-code tile count
D, steps per round S, output states per successful round k, and raw
input states consumed N.  For raw input error rate p the round success
probability is P_s = (1 - p)^N.

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
unbounded optimum needs more rounds than the bound does the bounded
fallback run: the same relaxation over L rounds, each round's key row
of M+1 states read from the one before it, so it keeps two key rows
and one move index per (round, state).  Every planner checks its size
against ENUMERATION_GUARD before it allocates by the demand, and the
two exact planners refuse a demand that L rounds cannot meet before
they search.
"""

from __future__ import annotations

import functools
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


def _guard(size: int, what: str) -> None:
    if size > ENUMERATION_GUARD:
        raise EnumerationGuardError(f"{what}, over the guard of {ENUMERATION_GUARD}")


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


def _by_name(catalog: Iterable[Protocol]) -> dict[str, Protocol]:
    out: dict[str, Protocol] = {}
    for p in catalog:
        if p.name in out:
            raise ValueError(f"duplicate protocol name {p.name!r}")
        out[p.name] = p
    if not out:
        raise ValueError("empty protocol catalog")
    return out


def _require_feasible(protos: dict[str, Protocol], m: int, bound: int) -> None:
    """M states fit in L rounds iff L rounds of the protocol with the most
    outputs deliver them; the exact planners ask before they search."""
    if bound * max(p.outputs for p in protos.values()) < m:
        raise InfeasibleScheduleError(
            f"no feasible schedule within {bound} rounds for demand {m}"
        )


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
    search would visit only 43757 multisets.  For one protocol, whose
    |P|^L is 1, it bounds the L(L+1)/2 rounds of its L multisets.
    """
    protos = _by_name(catalog)
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    # |P|^L has L log2|P| bits; past the guard's bit length in rounds,
    # any |P| >= 2 exceeds the guard already
    _guard(len(protos) ** min(max_rounds, ENUMERATION_GUARD.bit_length()),
           f"|catalog|^L = {len(protos)}^{max_rounds}")
    evaluated = max_rounds * (max_rounds + 1) // 2
    _guard(evaluated, f"L(L+1)/2 = {evaluated} rounds to evaluate")
    _require_feasible(protos, demand.states_required, max_rounds)
    names = sorted(protos)
    feasible: list[Schedule] = []
    for length in range(1, max_rounds + 1):
        for combo in itertools.combinations_with_replacement(names, length):
            sched = evaluate(combo, protos.values(), demand)
            if sched.feasible:
                feasible.append(sched)
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


_UNREACHED = float("inf")


def dp_schedule(
    catalog: Iterable[Protocol],
    demand: Demand,
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
    A key is held as cost * (M + 1) + rounds, ordered and added as the
    pair: each round delivers a state, so a key for s has <= s <= M rounds.

    This is the schedule of the bounded table C(i, s) over exactly i
    rounds, which takes the fewest rounds i among the minimum-cost
    entries C(i, M).  Any key best[s] below the table path's (cost,
    rounds) at one of its cells, followed by the rest of that path,
    would be a round list within the bound of lower cost, or equal cost
    in fewer rounds: so the table path runs through best[s] at every
    cell.  At such a cell (i, s) of cost C, protocol p attains the table
    minimum iff best[max(0, s - k_p)] = (C - D_p * S_p, i - 1), by the
    same argument, which is the 1-D tie set.  Both walks take the first
    name of equal sets, hence the same parent at every step.

    When best[M] needs more rounds than the bound, the table decides:
    row i is relaxed from row i - 1 by the same step, and the least
    key (C(i, M), i) over the rows picks the round count.  Its rows
    leave C(i, 0) unreached for i >= 1: a walk back that reaches 0
    states with rounds left passes rounds that deliver nothing needed,
    which the optimum drops.  With the same round bound this
    matches brute_force("tiles") exactly.

    The guard bounds the 1-D pass's (M + 1) * |P| cells, which admits
    M < 5 * 10^6 for the shipped catalog (0.37 GB peak RSS at M = 4 999 999),
    and, before the table is built, its (L + 1) * (M + 1) * |P| cells,
    whose move indices then take at most 80 MB.
    """
    protos = _by_name(catalog)
    m = demand.states_required
    bound = max_rounds if max_rounds is not None else m
    if bound < 1:
        raise ValueError("round bound must be >= 1")
    ordered = [protos[name] for name in sorted(protos)]
    moves = [(j, p.outputs, p.tiles * p.steps * (m + 1) + 1) for j, p in enumerate(ordered)]
    cells = (m + 1) * len(moves)
    _guard(cells, f"demand {m}: {cells} DP cells")
    best, picks = [0] * (m + 1), [0] * (m + 1)
    _relax(moves, best, best, picks)
    plan = [picks] * (best[m] % (m + 1))  # plan[i][s]: the move ending round i + 1 at s
    if len(plan) > bound:
        cells *= bound + 1
        _guard(cells, f"demand {m} within {bound} rounds: {cells} DP table cells")
        _require_feasible(protos, m, bound)
        prev, plan, least = [0] + [_UNREACHED] * m, [], _UNREACHED
        for _ in range(bound):
            row, picks = [_UNREACHED] * (m + 1), [0] * (m + 1)
            _relax(moves, prev, row, picks)
            plan.append(picks)
            least, prev = min(least, row[m]), row
        del plan[least % (m + 1):]
    rounds, s = [], m
    for picks in reversed(plan):
        p = ordered[picks[s]]
        rounds.append(p.name)
        s = max(0, s - p.outputs)
    return evaluate(rounds[::-1], protos.values(), demand)


def _relax(moves: list[tuple], prev: list, row: list, picks: list) -> None:
    """row[s] = min over moves (j, k_j, D_j * S_j * (M + 1) + 1) of
    prev[max(0, s - k_j)] + that step for s = 1..M, keys as in
    dp_schedule, the first j on ties; picks[s] = j.

    With row = prev this is the 1-D pass in place (each read at
    s - k_j < s sees this pass's value); with a fresh row it is row i
    of the bounded table, read from row i - 1.
    """
    for s in range(1, len(row)):
        key, pick = _UNREACHED, 0
        for j, outputs, step in moves:
            candidate = prev[s - outputs if s > outputs else 0] + step
            if candidate < key:
                key, pick = candidate, j
        row[s] = key
        picks[s] = pick


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
    _guard(rounds, f"demand {demand.states_required}: {rounds} rounds of {chosen.name}")
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
    """The shipped catalog: the 15-to-1 and 20-to-4 protocols, as a
    fresh list of the protocols parsed once per process."""
    return list(_shipped_catalog())


@functools.cache
def _shipped_catalog() -> tuple[Protocol, ...]:
    path = resources.files("pauliflow").joinpath("data/protocols.cat")
    return tuple(parse_catalog(path.read_text()))


