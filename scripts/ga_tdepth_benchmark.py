#!/usr/bin/env python3
"""T-depth reduction benchmark: GA vs greedy matching vs ASAP on dense instances.

Generates seeded maximal-density rotation sequences, runs the genetic
optimizer and two greedy baselines (a single matching pass and iterated
matching) next to the ASAP layering, the minimum depth any of them can
reach, and prints a per-seed table plus summary statistics.

Example:
    python scripts/ga_tdepth_benchmark.py --qubits 50 --depth 128 --seeds 20
"""

import argparse
import json
import statistics
import time

from pauliflow.layers import (
    GAConfig,
    apply_merges,
    asap_optimize,
    dense_random_rotations,
    ga_optimize,
    greedy_collapse,
    greedy_matching,
    singleton_layering,
)


def run_seed(n_qubits, depth, seed, cfg):
    rotations = dense_random_rotations(n_qubits, depth, seed)
    layering = singleton_layering(rotations)

    one_pass = apply_merges(layering, greedy_matching(layering, cfg.beta))
    iterated = greedy_collapse(layering, cfg.beta)
    ga = ga_optimize(layering, cfg)
    asap = asap_optimize(layering)

    return {
        "seed": seed,
        "initial": depth,
        "greedy_1pass": one_pass.t_depth,
        "greedy_iter": iterated.final_t_depth,
        "ga": ga.final_t_depth,
        "asap": asap.final_t_depth,
        "ga_rounds": ga.rounds,
        "ga_reduction": (depth - ga.final_t_depth) / depth,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=50)
    parser.add_argument("--depth", type=int, default=128,
                        help="initial T-depth (one rotation per layer)")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--population-size", type=int, default=32)
    parser.add_argument("--elite-k", type=int, default=4)
    parser.add_argument("--max-generations", type=int, default=60)
    parser.add_argument("--stagnation-limit", type=int, default=10)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--json", help="also dump per-seed rows to this path")
    args = parser.parse_args()

    rows = []
    start = time.perf_counter()
    header = f"{'seed':>4} {'init':>5} {'greedy1':>8} {'greedyIt':>9} {'GA':>5} {'asap':>5} {'rounds':>6} {'reduction':>10}"
    print(header)
    print("-" * len(header))
    for seed in range(args.seeds):
        cfg = GAConfig(
            population_size=args.population_size,
            elite_k=args.elite_k,
            max_generations=args.max_generations,
            stagnation_limit=args.stagnation_limit,
            beta=args.beta,
            seed=seed,
        )
        row = run_seed(args.qubits, args.depth, seed, cfg)
        rows.append(row)
        print(
            f"{row['seed']:>4} {row['initial']:>5} {row['greedy_1pass']:>8} "
            f"{row['greedy_iter']:>9} {row['ga']:>5} {row['asap']:>5} {row['ga_rounds']:>6} "
            f"{row['ga_reduction']:>9.1%}"
        )
    elapsed = time.perf_counter() - start

    reductions = [r["ga_reduction"] for r in rows]
    beats_1pass = sum(r["ga"] < r["greedy_1pass"] for r in rows)
    beats_iter = sum(r["ga"] < r["greedy_iter"] for r in rows)
    ties_iter = sum(r["ga"] == r["greedy_iter"] for r in rows)
    print(
        f"\nmean GA reduction {statistics.mean(reductions):.1%} "
        f"(min {min(reductions):.1%}, max {max(reductions):.1%})"
    )
    print(
        f"GA beats single-pass greedy on {beats_1pass}/{len(rows)} seeds; "
        f"vs iterated greedy: {beats_iter} wins, {ties_iter} ties"
    )
    above_asap = sum(r["ga"] > r["asap"] for r in rows)
    print(
        f"GA above the ASAP depth on {above_asap}/{len(rows)} seeds "
        f"(mean GA {statistics.mean(r['ga'] for r in rows):.1f}, "
        f"mean ASAP {statistics.mean(r['asap'] for r in rows):.1f})"
    )
    print(f"total {elapsed:.1f}s")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"rows written to {args.json}")


if __name__ == "__main__":
    main()
