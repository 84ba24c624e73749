#!/usr/bin/env python3
"""Sweep the basis-couple miss risk: closed form vs Monte Carlo.

For each (p, m) cell the closed form [1 - (1-p)^k]^m is compared against a
seeded simulation; the gap is reported in units of the binomial standard
error. Large sweeps stay fast and small in memory: each chunk of trials
is drawn in cache-sized blocks, a trial stops being read at its first
fully detected couple, and chunks may be spread over worker threads
without changing the sampled stream.
"""

import argparse
import sys

from edgematch import ProbabilityParams, miss_probability_general, monte_carlo_miss


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", default="0.05,0.1,0.25,0.5",
                    help="comma-separated dropout probabilities")
    ap.add_argument("--m", default="1,5,10,20",
                    help="comma-separated significant-couple counts")
    ap.add_argument("--trials", type=int, default=1_000_000)
    ap.add_argument("--edges", type=int, default=2, choices=(2, 3),
                    help="edges per basis couple")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="also write the table as CSV")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ps = [float(t) for t in args.p.split(",") if t]
    ms = [int(t) for t in args.m.split(",") if t]

    header = f"{'p':>6} {'m':>4} {'closed form':>14} {'estimate':>14} {'stderr':>10} {'gap/se':>8}"
    print(header)
    print("-" * len(header))
    rows = ["p,m,closed_form,mc_estimate,stderr"]
    worst = 0.0
    for p in ps:
        for m in ms:
            closed = miss_probability_general(p, m, args.edges)
            est, se = monte_carlo_miss(
                ProbabilityParams(p=p, m=m), trials=args.trials, seed=args.seed,
                edges_per_couple=args.edges, workers=args.workers,
            )
            gap = abs(est - closed) / se if se > 0 else 0.0
            worst = max(worst, gap)
            print(f"{p:>6.3f} {m:>4d} {closed:>14.6e} {est:>14.6e} "
                  f"{se:>10.2e} {gap:>8.2f}")
            rows.append(f"{p},{m},{closed!r},{est!r},{se!r}")
    print(f"\nworst deviation: {worst:.2f} standard errors "
          f"({args.trials} trials per cell, k={args.edges})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(rows) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
