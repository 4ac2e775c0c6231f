"""Command-line pipeline: transpile, optimize, schedule, estimate, decode, verify.

Each stage reads the previous stage's JSON, so transformations can be
inspected and re-verified independently.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 infeasible, guard exceeded, or
out of memory or recursion depth.
Machine-readable JSON goes to the -o path ("-" for standard output);
otherwise a short human summary is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import canonical, circuits, layers, resources, scheduling

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

CATALOG_ENV = "PAULIFLOW_CATALOG"

# every GAConfig field is both an optimize flag and a config key
_GA_KNOBS = dataclasses.fields(layers.GAConfig)
_CONFIG_KEYS = {
    **{f.name: type(f.default) for f in _GA_KNOBS},
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
        if key == "objective" and value not in scheduling.OBJECTIVES:
            raise ConfigError(
                f"{path}:{lineno}: objective must be one of "
                f"{scheduling.OBJECTIVES}, got {value!r}"
            )
    try:  # GAConfig states each GA bound; the file's GA keys go over its defaults
        layers.GAConfig(**{f.name: values[f.name]
                           for f in _GA_KNOBS if f.name in values})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return values


def _emit(payload: dict | str, out: str | None, summary: str):
    """Write the payload, a dict or its JSON text, to `out`."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if out == "-":
        print(text)
    elif out:
        Path(out).write_text(text + "\n")
        print(summary)
    else:
        print(summary)


def _setting(args, cfg_file: dict, key: str, default):
    """The flag if given, else the config key, else the default."""
    flag = getattr(args, key, None)
    return cfg_file.get(key, default) if flag is None else flag


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# the flag that picks a command's mode -> {flag: the modes that read it}
_READERS = {
    "method": {**{f.name: ("ga",) for f in _GA_KNOBS}, "beta": ("greedy", "ga")},
    "algo": {"max_rounds": ("brute", "dp"), "weight": ("brute",), "seed": ("random",)},
    "dump_code": dict.fromkeys(
        ("noise", "p", "shots", "seed", "workers", "max_weight", "output"), (None,)),
}


def _reject_unused_flags(args, choice: str):
    """A flag the chosen mode ignores is a usage error.

    Config-file keys are not checked: one file serves every command.
    """
    chosen = getattr(args, choice)
    for key, readers in _READERS[choice].items():
        if getattr(args, key) is not None and chosen not in readers:
            raise ConfigError(f"{_flag(key)} is not used by {_flag(choice)} {chosen}")


def _load_canonical(path: str, command: str) -> tuple[canonical.CanonicalForm, canonical.Trace]:
    """Canonical form and Clifford trace of the `transpile` or `optimize` JSON at `path`."""
    expects = f"{command} expects the JSON written by transpile or optimize"
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not JSON ({exc}); {expects}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to read; {expects}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: not a JSON object; {expects}")
    try:
        return canonical.canonical_from_json(obj)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}; {expects}") from None


# -- subcommands -------------------------------------------------------------


def cmd_transpile(args) -> int:
    gc = circuits.parse_circuit(Path(args.circuit).read_text())
    cf, trace = canonical.canonicalize(gc), canonical.clifford_trace(gc)
    metrics = circuits.circuit_metrics(circuits.RotationCircuit(cf.n, cf.pi8))
    _emit(
        canonical.canonical_to_json(cf, trace, tail={"metrics": metrics}),
        args.output,
        f"canonicalized {args.circuit}: n={cf.n} t_count={metrics['t_count']} "
        f"naive_t_depth={metrics['naive_t_depth']} "
        f"clifford_trace={len(trace.order)}",
    )
    return EXIT_OK


def cmd_optimize(args) -> int:
    _reject_unused_flags(args, "method")
    cfg_file = load_config(args.config) if args.config else {}
    # GAConfig refuses its knobs before the input is read
    cfg = layers.GAConfig(**{
        f.name: _setting(args, cfg_file, f.name, f.default) for f in _GA_KNOBS})
    cf, trace = _load_canonical(args.canonical, "optimize")
    # a Clifford-only circuit has the empty layering, of T-depth zero
    layering = (layers.singleton_layering(cf.pi8) if cf.pi8
                else layers.Layering(cf.n, (), ()))
    asap = layers.asap_optimize(layering)
    if args.method == "asap":
        result = asap
    elif args.method == "ga":
        result = layers.ga_optimize(layering, cfg)
    else:
        # greedy uses beta alone, under GAConfig's bound
        result = layers.greedy_collapse(layering, cfg.beta)
    final = result.layering
    final.validate()
    layer_rotations = [[final.rotations[i] for i in layer] for layer in final.layers]
    report = {**result.report(), "asap_t_depth": asap.final_t_depth}
    _emit(
        canonical.canonical_to_json(
            cf, trace, layer_rotations, {"report": report, "method": args.method}),
        args.output,
        f"{args.method}: t_depth {report['initial_t_depth']} -> "
        f"{report['final_t_depth']}",
    )
    return EXIT_OK


def cmd_schedule(args) -> int:
    cfg_file = load_config(args.config) if args.config else {}
    path = _setting(args, cfg_file, "catalog", os.environ.get(CATALOG_ENV))
    catalog = scheduling.load_catalog(path) if path else scheduling.default_catalog()
    demand = scheduling.Demand(args.states, args.p_raw)
    # only brute reads an objective; the others plan for tiles
    objective = (_setting(args, cfg_file, "objective", "tiles")
                 if args.algo == "brute" else "tiles")
    if args.objective not in (None, objective):
        aim = "only minimizes tiles" if args.algo == "dp" else "takes no objective"
        raise ConfigError(
            f"the {args.algo} planner {aim}; use --algo brute for "
            f"the {args.objective} objective"
        )
    _reject_unused_flags(args, "algo")
    if args.weight is not None and objective != "balanced":
        raise ConfigError(f"--weight is not used by --algo brute with the "
                          f"{objective} objective")
    # only random reads a seed, from the flag or the config file
    seed = _setting(args, cfg_file, "seed", 0) if args.algo == "random" else 0
    max_rounds = 6 if args.max_rounds is None else args.max_rounds
    if args.algo == "brute":
        weight = 0.5 if args.weight is None else args.weight
        sched = scheduling.brute_force(catalog, demand, max_rounds, objective, weight)
    elif args.algo == "dp":
        sched = scheduling.dp_schedule(catalog, demand, max_rounds=max_rounds)
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
    ratio = _setting(
        args, cfg_file, "streaming_ratio", resources.DEFAULT_STREAMING_RATIO
    )
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


def _codes():
    """pauliflow.codes, imported on first use: it imports numpy, which only
    decode and (through pauliflow.oracle) verify need."""
    from . import codes

    return codes


_CODES = {
    "rep3": lambda: _codes().repetition_code(3),
    "rep5": lambda: _codes().repetition_code(5),
    "surface3": lambda: _codes().rotated_surface_code(3),
    "surface5": lambda: _codes().rotated_surface_code(5),
}


def cmd_decode(args) -> int:
    _reject_unused_flags(args, "dump_code")
    codes = _codes()
    code = _CODES[args.code]()
    if args.dump_code is not None:
        _emit(code.to_json(), args.dump_code,
              f"{args.code}: [[{code.n}, {code.k}, {code.distance}]]")
        return EXIT_OK
    if args.noise is None or args.p is None:
        raise ConfigError("decode requires --noise and --p")
    max_weight = (resources.correctable_weight(code.distance)
                  if args.max_weight is None else args.max_weight)
    shots = 100_000 if args.shots is None else args.shots
    seed = 0 if args.seed is None else args.seed
    # refuse --p, --shots, --seed and --workers before the table
    noise = codes.NoiseModel(args.noise, args.p)
    codes._check_campaign(shots, seed, args.workers)
    dec = codes.build_lookup(code, max_weight)
    result = codes.monte_carlo(dec, noise, shots, seed, args.workers)
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
        f"{shots} shots)",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle

    cfg_file = load_config(args.config) if args.config else {}
    tol = _setting(args, cfg_file, "tolerance", oracle.DEFAULT_TOL)
    gc = circuits.parse_circuit(Path(args.circuit).read_text())
    cf, _ = _load_canonical(args.canonical, "verify")
    verdict = oracle.verify_canonical_form(gc, cf, tol)
    print(f"fidelity={verdict.fidelity:.12f} {'PASS' if verdict.ok else 'FAIL'}")
    return EXIT_OK if verdict.ok else EXIT_VERIFY_FAILED


# -- argument parsing ---------------------------------------------------------


COMMANDS = ("transpile", "optimize", "schedule", "estimate", "decode", "verify")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given one of COMMANDS, of that one
    alone, which words its usage, help and errors as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="pauliflow",
        description="Clifford+T canonicalization, T-depth optimization, "
        "distillation scheduling, and surface-code estimates",
    )
    one = command in COMMANDS  # its usage still names every command
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(COMMANDS) if one else None)

    def add(name: str, help: str):
        return sub.add_parser(name, help=help) if not one or name == command else None

    if p := add("transpile", "circuit file -> canonical JSON"):
        p.add_argument("circuit")
        p.add_argument("-o", "--output", help="JSON path, or - for stdout")
        p.set_defaults(func=cmd_transpile)

    if p := add("optimize", "canonical JSON -> layered JSON"):
        p.add_argument("canonical")
        p.add_argument("-o", "--output")
        p.add_argument(
            "--method", choices=("asap", "greedy", "ga"), default="asap",
            help="asap (default): the minimum-depth layering, one placement "
            "pass; greedy and ga: the paper's merge-based baselines",
        )
        p.add_argument("--config", help="key = value config file")
        for f in _GA_KNOBS:
            p.add_argument(_flag(f.name), dest=f.name, type=type(f.default))
        p.set_defaults(func=cmd_optimize)

    if p := add("schedule", "plan distillation rounds"):
        p.add_argument("--algo", choices=("brute", "dp", "greedy", "random"),
                       required=True)
        p.add_argument("-M", "--states", type=int, required=True,
                       help="magic states required")
        p.add_argument("--p-raw", dest="p_raw", type=float, default=0.0)
        p.add_argument("--objective", choices=scheduling.OBJECTIVES)
        p.add_argument("--weight", type=float,
                       help="tile weight for brute's balanced objective (default 0.5)")
        p.add_argument("-L", "--max-rounds", dest="max_rounds", type=int,
                       help="round bound for brute and dp (default 6)")
        p.add_argument("--catalog", help=f"protocol file (or ${CATALOG_ENV})")
        p.add_argument("--seed", type=int, help="seed for random (default 0)")
        p.add_argument("--config")
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_schedule)

    if p := add("estimate", "physical resource report"):
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

    if p := add("decode", "Monte Carlo decoding campaign"):
        p.add_argument("--code", choices=sorted(_CODES), required=True)
        p.add_argument("--noise", choices=("bitflip", "depolarizing"))
        p.add_argument("--p", type=float)
        p.add_argument("--shots", type=int, help="shot count (default 100000)")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument("--workers", type=int,
                       help="worker threads (default: one per usable CPU); "
                            "counts are bit-identical for any value")
        p.add_argument("--max-weight", dest="max_weight", type=int)
        p.add_argument("--dump-code", dest="dump_code",
                       help="write the code definition as JSON and exit")
        p.add_argument("-o", "--output")
        p.set_defaults(func=cmd_decode)

    if p := add("verify", "oracle check: circuit vs canonical or layered JSON"):
        p.add_argument("circuit")
        p.add_argument("canonical")
        p.add_argument("--tol", dest="tolerance", type=float)
        p.add_argument("--config")
        p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (
        scheduling.InfeasibleScheduleError,
        scheduling.EnumerationGuardError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as exc:  # never verify's FAIL code
        print(f"error: {type(exc).__name__}" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
