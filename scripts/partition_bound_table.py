#!/usr/bin/env python3
"""Tabulate abort-augmented partition bounds for the builtin games.

For each game, abort budget, and counting variant, prints the
no-signalling and local efficiency values side by side, plus the gap.
The no-signalling column can never exceed the local one; eyeballing the
gap across variants is the quickest way to see where aborts buy the
provers anything.
"""

import sys

from gamebox import bounds, cli, games


def main() -> None:
    ap = cli._Parser(description=__doc__)
    ap.add_argument("--games", default="chsh,magic_square",
                    help="comma-separated builtin names")
    ap.add_argument("--eps", default="0,0.05,0.1,0.2",
                    help="comma-separated abort budgets")
    args = ap.parse_args()

    # every flag is resolved before the header, so a refused run prints nothing
    named = [(g.strip(), games.builtin_game(g.strip())) for g in args.games.split(",") if g.strip()]
    eps_grid = cli._float_list(args.eps)
    for eps in eps_grid:
        for variant in bounds.VARIANTS:
            bounds._check_eps_variant(eps, variant)
    for _, game in named:
        bounds._check_ns_size(game)
        bounds._check_local_size(game)

    header = f"{'game':<14} {'eps':>5} {'variant':<11} {'eff_ns':>10} {'eff_local':>10} {'gap':>10}"
    print(header)
    print("-" * len(header))
    for name, game in named:
        for eps in eps_grid:
            for variant in bounds.VARIANTS:
                ns = bounds.eff_ns(game, eps, variant).eff
                local = bounds.eff_local(game, eps, variant).eff
                # each value is an LP optimum checked to 1e-9, so a gap that
                # rounds to zero prints as 0.000000, whatever its sign
                gap = round(local - ns, 6) + 0.0
                print(f"{name:<14} {eps:>5.2f} {variant:<11} {ns:>10.6f} {local:>10.6f} {gap:>10.6f}")
        print("-" * len(header))


if __name__ == "__main__":
    # a usage error exits 1; bad list input or a library refusal prints one
    # line and exits 1 or 2
    if code := cli.exit_code(main):
        sys.exit(code)
