#!/usr/bin/env python3
"""Probe repeated-game values under limited cross-copy communication.

Runs the empirical search over communication-assisted deterministic
strategies for small copy counts and message budgets, and prints each
best value next to the single-copy classical value raised to the copy
count. Values above that power line quantify what the communication
buys; "exhaustive" rows are exact, "lower_bound" rows come from seeded
hill climbing.
"""

import sys

from gamebox import cli, dpt, games


def main() -> None:
    ap = cli._Parser(description=__doc__)
    ap.add_argument("--games", default="chsh,magic_square")
    ap.add_argument("--copies", default="1,2")
    ap.add_argument("--comm-bits", default="0,1,2")
    ap.add_argument("--budget", type=int, default=200_000,
                    help="strategy-enumeration cap before falling back to hill climbing")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    copies = cli._int_list(args.copies, "--copies")
    comm_bits = cli._int_list(args.comm_bits, "--comm-bits")
    # every probe is checked before the header, so a refused run prints nothing
    plan = []
    for name in [g.strip() for g in args.games.split(",") if g.strip()]:
        game = games.builtin_game(name)
        probes = [dpt.RepetitionProbe(game, n=n, comm_bits=comm, search_budget=args.budget, seed=args.seed)
                  for n in copies for comm in comm_bits]
        for probe in probes:
            dpt._check_probe(probe)
        plan.append((name, game, probes))

    print(f"{'game':<14} {'n':>3} {'comm':>5} {'value':>12} {'classical^n':>12} {'kind':<12}")
    for name, game, probes in plan:
        single = games.classical_value(game).value
        for probe in probes:
            res = dpt.empirical_repeated_value(probe)
            print(f"{name:<14} {probe.n:>3} {probe.comm_bits:>5} {res.best_value:>12.8f} "
                  f"{single**probe.n:>12.8f} {res.kind:<12}")


if __name__ == "__main__":
    # a usage error exits 1; bad list input or a library refusal prints one
    # line and exits 1 or 2
    if code := cli.exit_code(main):
        sys.exit(code)
