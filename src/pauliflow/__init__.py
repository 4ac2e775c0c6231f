"""pauliflow: Clifford+T canonicalization, T-depth optimization,
distillation scheduling, and surface-code resource estimation."""

import importlib

from .pauli import PauliString, independent, merged_rotation_axis
from .circuits import (
    Gate,
    GateCircuit,
    PauliRotation,
    RotationCircuit,
    circuit_metrics,
    gate_to_rotations,
    parse_circuit,
    render_circuit,
)
from .canonical import (
    CanonicalForm,
    CliffordTableau,
    canonicalize,
    push_cliffords,
    to_rotation_circuit,
)
from .layers import (
    GAConfig,
    Layering,
    MergeSet,
    apply_merges,
    asap_optimize,
    build_layers,
    ga_optimize,
    greedy_collapse,
    greedy_matching,
    mergeable,
    singleton_layering,
)
from .scheduling import (
    Demand,
    Protocol,
    Schedule,
    brute_force,
    default_catalog,
    dp_schedule,
    evaluate,
    greedy_schedule,
    random_baseline,
    success_probability,
)
from .resources import (
    CodeParams,
    WorkloadProfile,
    correctable_weight,
    distillation_volume,
    distilled_error,
    logical_error_rate,
    min_distance_for,
    physical_qubits,
    recommend_protocol,
)

__version__ = "0.1.0"

# codes imports numpy, which no compile command needs: its names (and the
# submodule itself) are looked up on first use
_CODES_NAMES = frozenset({
    "LookupDecoder",
    "NoiseModel",
    "StabilizerCode",
    "build_lookup",
    "decode",
    "monte_carlo",
    "repetition_code",
    "residual_class",
    "rotated_surface_code",
    "syndrome",
    "validate_code",
})


def __getattr__(name: str):
    if name == "codes" or name in _CODES_NAMES:
        codes = importlib.import_module(f"{__name__}.codes")
        return codes if name == "codes" else getattr(codes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
