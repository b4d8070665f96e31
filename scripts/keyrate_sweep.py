#!/usr/bin/env python3
"""Sweep the finite-size key-rate formula over a parameter grid.

Writes one CSV row per grid cell and reports the best positive-rate
cell on stderr, if any. Protocol simulation is off by default (runs=0)
so large grids stay cheap; pass --runs to also estimate abort
frequency and QBER. Each distinct (n, alpha, gamma, delta) is simulated
once, so the --c, --nu and --beta axes add no runs: their cells share
one estimate and differ only through the rate formula.

Example:
    python3 scripts/keyrate_sweep.py --n 1000000 \
        --alpha 0.02,0.04,0.08 --gamma 0.01,0.02 --delta 0.001,0.005 \
        --c 0.0005,0.001 --nu 0.3 --beta 0.5 --out rates.csv
"""

import argparse
import csv
import sys

from gamebox import diqkd


def _floats(text):
    return [float(x) for x in text.split(",")]


def _ints(text):
    """Round counts in plain digits, as ``gamebox diqkd sweep`` reads them:
    2.0 and 1e300 are refused, not read as floats."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        sys.exit(f"n must be an integer or comma-separated integers (in plain digits), got {text!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", required=True)
    ap.add_argument("--alpha", required=True)
    ap.add_argument("--gamma", required=True)
    ap.add_argument("--delta", required=True)
    ap.add_argument("--c", default="0")
    ap.add_argument("--nu", default="0.01")
    ap.add_argument("--beta", default="1.0")
    ap.add_argument("--runs", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    grid = {
        "n": _ints(args.n),
        "alpha": _floats(args.alpha),
        "gamma": _floats(args.gamma),
        "delta": _floats(args.delta),
        "c": _floats(args.c),
        "nu": _floats(args.nu),
        "beta": _floats(args.beta),
    }
    rows = diqkd.sweep(diqkd.expand_grid(grid), runs_per_cell=args.runs, seed=args.seed)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=diqkd.SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()

    positive = [r for r in rows if r["rate_per_copy"] > 0]
    if positive:
        best = max(positive, key=lambda r: r["rate_per_copy"])
        print(
            f"best positive cell: rate_per_copy={best['rate_per_copy']:.6g} at "
            f"n={best['n']} alpha={best['alpha']} gamma={best['gamma']} "
            f"delta={best['delta']} c={best['c']} nu={best['nu']} beta={best['beta']}",
            file=sys.stderr,
        )
    else:
        print("no positive-rate cell in this grid", file=sys.stderr)


if __name__ == "__main__":
    main()
