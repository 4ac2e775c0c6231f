"""Closed-form physical-resource and error estimates for surface codes.

Qubit counts follow the rotated layout: d^2 data qubits plus d^2 - 1
ancillas in the standard variant, and half the ancillas when X- and
Z-type checks share ancillas across interleaved sub-rounds.  Logical
error per round is modeled as 0.03 * (p / 0.01)^((d+1)/2), valid for
physical error rates up to 0.01; larger p is rejected rather than
extrapolated.

Distillation block volumes and per-state costs are catalog data, not
derived: the 15-to-1 block occupies 55 tiles for 12d cycles (660 d^3)
while its optimized per-state cost in protocol selection is 6.3 d^3;
the two refer to different layouts and are deliberately exposed under
distinct names.  A recommendation is its (name, levels) key; its
per-state cost is read from `_COST_PER_STATE_D3` under that key.  A
round's output error is read from the shipped protocol catalog
(`scheduling.default_catalog`), the one place it is stated, and a name
missing from that catalog is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import scheduling
from .circuits import SCHEMA_VERSION

LOGICAL_ERROR_PREFACTOR = 0.03
LOGICAL_ERROR_REFERENCE_P = 0.01

# name -> block footprint: tiles, and cycles per unit of distance
_BLOCKS = {
    "15-to-1": {"area_tiles": 55, "cycles_per_d": 12},
    "20-to-4": {"area_tiles": 14, "cycles_per_d": 4},
}

# per-state space-time costs (units of d^3) used by protocol selection
_COST_PER_STATE_D3 = {
    ("20-to-4", 1): 27.0,
    ("15-to-1", 2): 25.9,
    ("15-to-1", 1): 6.3,
}

DEFAULT_STREAMING_RATIO = 100.0


@dataclass(frozen=True)
class CodeParams:
    d: int
    variant: str = "standard"

    def __post_init__(self):
        _check_distance(self.d)
        if self.variant not in ("standard", "ancilla_reuse"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass(frozen=True)
class WorkloadProfile:
    t_count: int
    t_depth: int
    p_phys: float
    target_logical_error: float

    def __post_init__(self):
        if not self.t_count >= self.t_depth >= 1:
            raise ValueError("workload requires t_count >= t_depth >= 1")
        if not 0 < self.p_phys < 1:
            raise ValueError("physical error rate must be in (0, 1)")
        if not 0 < self.target_logical_error < 1:
            raise ValueError("target logical error must be in (0, 1)")


@dataclass(frozen=True)
class RecommendedProtocol:
    name: str
    levels: int

    @property
    def cost_per_state_d3(self) -> float:
        return _COST_PER_STATE_D3[(self.name, self.levels)]

    @property
    def label(self) -> str:
        return " x ".join([self.name] * self.levels)


def _check_distance(d: int):
    if d < 3 or d % 2 == 0:
        raise ValueError(f"code distance must be odd and >= 3, got {d}")


def physical_qubits(params: CodeParams) -> int:
    """Total qubit count: 2d^2 - 1 standard, d^2 + (d^2 - 1)/2 with reuse."""
    d2 = params.d * params.d
    if params.variant == "standard":
        return 2 * d2 - 1
    return d2 + (d2 - 1) // 2


def logical_error_rate(d: int, p: float) -> float:
    """Per-round logical error 0.03 * (p / 0.01)^((d+1)/2)."""
    _check_distance(d)
    if not 0 < p <= LOGICAL_ERROR_REFERENCE_P:
        raise ValueError(
            f"physical error rate must be in (0, {LOGICAL_ERROR_REFERENCE_P}]"
        )
    k = (d + 1) // 2
    denom = LOGICAL_ERROR_REFERENCE_P**k
    if denom > 0.0:
        # p**k / ref**k, not (p/ref)**k: keeps round decimal inputs exact
        return LOGICAL_ERROR_PREFACTOR * p**k / denom
    # the plain power underflows at very large d; fall back to log space
    return LOGICAL_ERROR_PREFACTOR * math.exp(
        k * (math.log(p) - math.log(LOGICAL_ERROR_REFERENCE_P))
    )


def min_distance_for(target: float, p: float, d_max: int = 10_001) -> int:
    """Smallest odd d >= 3 with logical_error_rate(d, p) <= target."""
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if p >= LOGICAL_ERROR_REFERENCE_P:
        # the rate is constant in d at the reference point
        if logical_error_rate(3, p) <= target:
            return 3
        raise ValueError(
            f"at p={p} the modeled rate never drops below "
            f"{LOGICAL_ERROR_PREFACTOR}; target {target} is unreachable"
        )
    for d in range(3, d_max + 1, 2):
        if logical_error_rate(d, p) <= target:
            return d
    raise ValueError(f"no distance up to {d_max} reaches {target} at p={p}")


def correctable_weight(d: int) -> int:
    """floor((d - 1) / 2) arbitrary errors."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    return (d - 1) // 2


def distillation_volume(protocol_name: str, d: int) -> dict:
    """Block footprint and space-time volume for one distillation round."""
    if protocol_name not in _BLOCKS:
        raise ValueError(f"unknown protocol {protocol_name!r}")
    if d < 1:
        raise ValueError("distance must be >= 1")
    block = _BLOCKS[protocol_name]
    cycles = block["cycles_per_d"] * d
    return {
        "area_tiles": block["area_tiles"],
        "cycles": cycles,
        "volume": block["area_tiles"] * cycles * d * d,
    }


def distilled_error(protocol_name: str, p: float) -> float:
    """Output error after one round: the catalog's error_coeff * p^error_exp, exactly."""
    protocol = {q.name: q for q in scheduling.default_catalog()}.get(protocol_name)
    if protocol is None:
        raise ValueError(f"unknown protocol {protocol_name!r}")
    if not 0 <= p < 1:
        raise ValueError("input error rate must be in [0, 1)")
    power = 1.0
    for _ in range(protocol.error_exp):
        power *= p
    return protocol.error_coeff * power


def recommend_protocol(
    workload: WorkloadProfile, streaming_ratio: float = DEFAULT_STREAMING_RATIO
) -> RecommendedProtocol:
    """Regime-based protocol choice with catalog per-state costs.

    Targets at or below a single 15-to-1 round's output error demand two
    cascaded levels; that check precedes the throughput test since an
    ultra-low-error workload may also stream at a high T-rate.  A
    workload streams when t_count / t_depth reaches `streaming_ratio`, a
    number >= 0.
    """
    if not streaming_ratio >= 0:  # NaN fails every comparison
        raise ValueError(f"streaming ratio must be >= 0, got {streaming_ratio!r}")
    single_level = distilled_error("15-to-1", workload.p_phys)
    if workload.target_logical_error <= single_level:
        return RecommendedProtocol("15-to-1", 2)
    if workload.t_count / workload.t_depth >= streaming_ratio:
        return RecommendedProtocol("20-to-4", 1)
    return RecommendedProtocol("15-to-1", 1)


@dataclass(frozen=True)
class ResourceReport:
    physical_qubits: int
    logical_error_per_round: float
    recommended_distance: int
    recommended_protocol: RecommendedProtocol
    distillation_volume: dict
    distilled_output_error: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "physical_qubits": self.physical_qubits,
            "logical_error_per_round": self.logical_error_per_round,
            "recommended_distance": self.recommended_distance,
            "recommended_protocol": {
                "name": self.recommended_protocol.label,
                "levels": self.recommended_protocol.levels,
                "cost_per_state_d3": self.recommended_protocol.cost_per_state_d3,
            },
            "distillation_volume": self.distillation_volume,
            "distilled_output_error": self.distilled_output_error,
        }


def build_report(
    params: CodeParams,
    workload: WorkloadProfile,
    streaming_ratio: float = DEFAULT_STREAMING_RATIO,
) -> ResourceReport:
    """Aggregate estimate for a code choice and workload."""
    # first, so a p outside the model's range is named as such before
    # distillation is fed it
    logical_error = logical_error_rate(params.d, workload.p_phys)
    protocol = recommend_protocol(workload, streaming_ratio)
    error = workload.p_phys
    for _ in range(protocol.levels):
        error = distilled_error(protocol.name, error)
    return ResourceReport(
        physical_qubits=physical_qubits(params),
        logical_error_per_round=logical_error,
        recommended_distance=min_distance_for(
            workload.target_logical_error, workload.p_phys
        ),
        recommended_protocol=protocol,
        distillation_volume=distillation_volume(protocol.name, params.d),
        distilled_output_error=error,
    )
