"""Command-line pipeline: transpile, optimize, schedule, estimate, decode, verify.

Each stage reads the previous stage's JSON, so transformations can be
inspected and re-verified independently.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 infeasible or guard exceeded.
Machine-readable JSON goes to the -o path ("-" for standard output);
otherwise a short human summary is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import canonical, circuits, codes, layers, resources, scheduling

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

CATALOG_ENV = "PAULIFLOW_CATALOG"

_CONFIG_KEYS = {
    "seed": int,
    "population_size": int,
    "elite_k": int,
    "crossover_rate": float,
    "mutation_rate": float,
    "beta": float,
    "max_generations": int,
    "stagnation_limit": int,
    "catalog": str,
    "objective": str,
    "tolerance": float,
    "streaming_ratio": float,
}


class ConfigError(ValueError):
    pass


def load_config(path: str | Path) -> dict:
    """Parse a key = value config file; unknown keys are rejected."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {value!r} as "
                f"{_CONFIG_KEYS[key].__name__}"
            )
    _validate_config(values, str(path))
    return values


def _validate_config(values: dict, origin: str):
    for key in ("population_size", "max_generations", "stagnation_limit"):
        if key in values and values[key] < 1:
            raise ConfigError(f"{origin}: {key} must be >= 1")
    if "elite_k" in values and values["elite_k"] < 0:
        raise ConfigError(f"{origin}: elite_k must be >= 0")
    for key in ("crossover_rate", "mutation_rate"):
        if key in values and not 0 <= values[key] <= 1:
            raise ConfigError(f"{origin}: {key} must be in [0, 1]")
    if "beta" in values and not 0 <= values["beta"] < 1:
        raise ConfigError(f"{origin}: beta must be in [0, 1)")


def _emit(payload: dict, out: str | None, summary: str):
    text = json.dumps(payload, indent=2)
    if out == "-":
        print(text)
    elif out:
        Path(out).write_text(text + "\n")
        print(summary)
    else:
        print(summary)


def _resolve_catalog(args) -> list[scheduling.Protocol]:
    path = getattr(args, "catalog", None) or os.environ.get(CATALOG_ENV)
    if path:
        return scheduling.load_catalog(path)
    return scheduling.default_catalog()


# optimize's tuning flags and the methods that use them
_GA_FLAGS = (
    "seed",
    "population_size",
    "elite_k",
    "crossover_rate",
    "mutation_rate",
    "beta",
    "max_generations",
    "stagnation_limit",
)
_METHOD_FLAGS = {"asap": (), "greedy": ("beta",), "ga": _GA_FLAGS}


def _reject_unused_flags(args):
    """A tuning flag the chosen method ignores is a usage error.

    Config-file keys are not checked: one file serves optimize,
    schedule and estimate alike.
    """
    for key in _GA_FLAGS:
        if getattr(args, key) is not None and key not in _METHOD_FLAGS[args.method]:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} is not used by --method {args.method}")


def _ga_config(args, cfg_file: dict) -> layers.GAConfig:
    merged = dict(cfg_file)
    for key in _GA_FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    allowed = {
        k: v
        for k, v in merged.items()
        if k in layers.GAConfig.__dataclass_fields__
    }
    return layers.GAConfig(**allowed)


# -- subcommands -------------------------------------------------------------


def cmd_transpile(args) -> int:
    gc = circuits.parse_circuit(Path(args.circuit).read_text())
    rc = canonical.to_rotation_circuit(gc)
    cf = canonical.push_cliffords(rc)
    metrics = circuits.circuit_metrics(
        circuits.RotationCircuit(cf.n, cf.pi8)
    )
    payload = canonical.canonical_to_json(cf)
    payload["metrics"] = metrics
    _emit(
        payload,
        args.output,
        f"canonicalized {args.circuit}: n={cf.n} t_count={metrics['t_count']} "
        f"naive_t_depth={metrics['naive_t_depth']} "
        f"clifford_trace={len(cf.clifford_trace)}",
    )
    return EXIT_OK


def cmd_optimize(args) -> int:
    _reject_unused_flags(args)
    cfg_file = load_config(args.config) if args.config else {}
    obj = json.loads(Path(args.canonical).read_text())
    cf = canonical.canonical_from_json(obj)
    if cf.pi8:
        layering = layers.singleton_layering(cf.pi8)
        asap = layers.asap_optimize(layering)
        if args.method == "asap":
            result = asap
        elif args.method == "ga":
            result = layers.ga_optimize(layering, _ga_config(args, cfg_file))
        else:
            beta = cfg_file.get("beta", 0.5) if args.beta is None else args.beta
            result = layers.greedy_collapse(layering, beta)
        final = result.layering
        final.validate()
        layer_payload = [
            [circuits.rotation_to_json(final.rotations[i]) for i in layer]
            for layer in final.layers
        ]
        report = {**result.report(), "asap_t_depth": asap.final_t_depth}
    else:
        # Clifford-only circuit: nothing to schedule, T-depth is zero
        layer_payload = []
        report = {
            "initial_t_depth": 0, "final_t_depth": 0,
            "rounds": 0, "merges_per_round": [], "asap_t_depth": 0,
        }
    payload = {
        "schema_version": circuits.SCHEMA_VERSION,
        "n": cf.n,
        "layers": layer_payload,
        "clifford_trace": [
            circuits.rotation_to_json(r) for r in cf.clifford_trace
        ],
        "measurement_bases": [str(b) for b in cf.measurement_bases],
        "report": report,
        "method": args.method,
    }
    _emit(
        payload,
        args.output,
        f"{args.method}: t_depth {report['initial_t_depth']} -> "
        f"{report['final_t_depth']}",
    )
    return EXIT_OK


def cmd_schedule(args) -> int:
    cfg_file = load_config(args.config) if args.config else {}
    if args.catalog is None and "catalog" in cfg_file:
        args.catalog = cfg_file["catalog"]
    catalog = _resolve_catalog(args)
    demand = scheduling.Demand(args.states, args.p_raw)
    objective = args.objective or cfg_file.get("objective", "tiles")
    seed = args.seed if args.seed is not None else cfg_file.get("seed", 0)
    if args.algo == "brute":
        sched = scheduling.brute_force(
            catalog, demand, args.max_rounds, objective, args.weight
        )
    elif args.algo == "dp":
        if objective != "tiles":
            raise ConfigError(
                "the dp planner only minimizes tiles; use --algo brute for "
                f"the {objective} objective"
            )
        sched = scheduling.dp_schedule(catalog, demand, "tiles", args.max_rounds)
    elif args.algo == "greedy":
        sched = scheduling.greedy_schedule(catalog, demand)
    else:
        sched = scheduling.random_baseline(catalog, demand, seed)
    payload = sched.to_json()
    payload["algorithm"] = args.algo
    payload["objective"] = objective
    payload["seed"] = seed
    counts = sorted(Counter(sched.rounds).items())
    per_protocol = ", ".join(f"{name} x{count}" for name, count in counts)
    _emit(
        payload,
        args.output,
        f"{args.algo}: rounds={len(sched.rounds)} ({per_protocol}) "
        f"tile_time={sched.tile_time} "
        f"latency={sched.expected_latency:.2f} delivered={sched.states_delivered}",
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg_file = load_config(args.config) if args.config else {}
    ratio = args.streaming_ratio
    if ratio is None:
        ratio = cfg_file.get("streaming_ratio", resources.DEFAULT_STREAMING_RATIO)
    params = resources.CodeParams(args.distance, args.variant)
    workload = resources.WorkloadProfile(
        t_count=args.t_count,
        t_depth=args.t_depth,
        p_phys=args.p,
        target_logical_error=args.target,
    )
    report = resources.build_report(params, workload, ratio)
    _emit(
        report.to_json(),
        args.output,
        f"d={args.distance} {args.variant}: {report.physical_qubits} qubits, "
        f"p_L={report.logical_error_per_round:.3g}/round, protocol "
        f"{report.recommended_protocol.label} "
        f"({report.recommended_protocol.cost_per_state_d3} d^3/state)",
    )
    return EXIT_OK


_CODES = {
    "rep3": (lambda: codes.repetition_code(3), 1),
    "rep5": (lambda: codes.repetition_code(5), 2),
    "surface3": (lambda: codes.rotated_surface_code(3), 1),
    "surface5": (lambda: codes.rotated_surface_code(5), 2),
}


def cmd_decode(args) -> int:
    builder, default_weight = _CODES[args.code]
    code = builder()
    if args.dump_code:
        _emit(code.to_json(), args.dump_code,
              f"{args.code}: [[{code.n}, {code.k}, {code.distance}]]")
        return EXIT_OK
    if args.noise is None or args.p is None:
        raise ConfigError("decode requires --noise and --p")
    max_weight = args.max_weight if args.max_weight is not None else default_weight
    dec = codes.build_lookup(code, max_weight)
    noise = codes.NoiseModel(args.noise, args.p)
    result = codes.monte_carlo(
        code, dec, noise, args.shots, args.seed, args.workers
    )
    payload = result.to_json()
    payload.update(
        {"code": args.code, "noise": args.noise, "p": args.p,
         "max_weight": max_weight}
    )
    lo, hi = result.wilson_95_interval
    _emit(
        payload,
        args.output,
        f"{args.code} {args.noise} p={args.p}: p_logical="
        f"{result.p_logical_estimate:.3e} (95% CI {lo:.3e}..{hi:.3e}, "
        f"{args.shots} shots)",
    )
    return EXIT_OK


def _verify_input(obj: dict, path: str) -> canonical.CanonicalForm:
    """Canonical form from `transpile` JSON, or from `optimize` JSON whose
    layers, taken in order, are the pi/8 list (layers only reorder
    commuting rotations, so the product is unchanged)."""
    expects = "verify expects the JSON written by transpile or optimize"
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: not a JSON object; {expects}")
    layered = "pi8" not in obj and "layers" in obj
    try:
        cf = canonical.canonical_from_json({**obj, "pi8": []} if layered else obj)
        if layered:  # errors name the layer and the entry within it
            per_layer = (
                canonical.rotations_from_json(layer, cf.n, f"field 'layers' layer {i}")
                for i, layer in enumerate(obj["layers"]))
            cf = dataclasses.replace(cf, pi8=tuple(itertools.chain(*per_layer)))
        return cf
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}; {expects}") from None


def cmd_verify(args) -> int:
    cfg_file = load_config(args.config) if args.config else {}
    tol = args.tol if args.tol is not None else cfg_file.get("tolerance", 1e-9)
    gc = circuits.parse_circuit(Path(args.circuit).read_text())
    cf = _verify_input(json.loads(Path(args.canonical).read_text()), args.canonical)
    from . import oracle

    verdict = oracle.verify_canonical_form(gc, cf, tol)
    print(f"fidelity={verdict.fidelity:.12f} {'PASS' if verdict.ok else 'FAIL'}")
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILED


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliflow",
        description="Clifford+T canonicalization, T-depth optimization, "
        "distillation scheduling, and surface-code estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpile", help="circuit file -> canonical JSON")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", help="JSON path, or - for stdout")
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser("optimize", help="canonical JSON -> layered JSON")
    p.add_argument("canonical")
    p.add_argument("-o", "--output")
    p.add_argument(
        "--method", choices=("asap", "greedy", "ga"), default="asap",
        help="asap (default): the minimum-depth layering, one placement "
        "pass; greedy and ga: the paper's merge-based baselines",
    )
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--population-size", dest="population_size", type=int)
    p.add_argument("--elite-k", dest="elite_k", type=int)
    p.add_argument("--crossover-rate", dest="crossover_rate", type=float)
    p.add_argument("--mutation-rate", dest="mutation_rate", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--max-generations", dest="max_generations", type=int)
    p.add_argument("--stagnation-limit", dest="stagnation_limit", type=int)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("schedule", help="plan distillation rounds")
    p.add_argument("--algo", choices=("brute", "dp", "greedy", "random"),
                   required=True)
    p.add_argument("-M", "--states", type=int, required=True,
                   help="magic states required")
    p.add_argument("--p-raw", dest="p_raw", type=float, default=0.0)
    p.add_argument("--objective", choices=scheduling.OBJECTIVES)
    p.add_argument("--weight", type=float, default=0.5,
                   help="tile weight for the balanced objective")
    p.add_argument("-L", "--max-rounds", dest="max_rounds", type=int, default=6)
    p.add_argument("--catalog", help=f"protocol file (or ${CATALOG_ENV})")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("estimate", help="physical resource report")
    p.add_argument("--distance", type=int, required=True)
    p.add_argument("--variant", choices=("standard", "ancilla_reuse"),
                   default="standard")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--t-count", dest="t_count", type=int, default=10**6)
    p.add_argument("--t-depth", dest="t_depth", type=int, default=10**6)
    p.add_argument("--target", type=float, default=1e-9,
                   help="target logical error rate")
    p.add_argument("--streaming-ratio", dest="streaming_ratio", type=float)
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decode", help="Monte Carlo decoding campaign")
    p.add_argument("--code", choices=sorted(_CODES), required=True)
    p.add_argument("--noise", choices=("bitflip", "depolarizing"))
    p.add_argument("--p", type=float)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-weight", dest="max_weight", type=int)
    p.add_argument("--dump-code", dest="dump_code",
                   help="write the code definition as JSON and exit")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "verify", help="oracle check: circuit vs canonical or layered JSON"
    )
    p.add_argument("circuit")
    p.add_argument("canonical")
    p.add_argument("--tol", type=float)
    p.add_argument("--config")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        scheduling.InfeasibleScheduleError,
        scheduling.EnumerationGuardError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, circuits.CircuitParseError, ValueError, KeyError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
