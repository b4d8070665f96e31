"""The five workloads: inputs built at set-up, operations timed in a pass,
and the check each operation's output must pass afterwards.

Every builder takes the imported ``gamebox`` package, the workload seed and
a scratch directory, and returns the operation list in an order shuffled by
the seed.  Calls go through module attributes at call time, so a traced
pass sees them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import random
from typing import Any, Callable, NamedTuple

import numpy as np

import oracles


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


VARIANTS = ("worst_case", "tilde", "average")
EPS_GRID = (0.0, 0.05, 0.1, 0.2)

# Cases left out until a later benchmark change can afford them, with the
# evidence for leaving each out.
EXCLUDED = (
    {"case": "eff_local(chsh^2, 0.1, worst_case)",
     "evidence": "did not finish within 8 min and held 555 MB on a 2-CPU container (Python 3.11, numpy 2.4)"},
    {"case": "ns_game_value(chsh^3)", "evidence": "LP 960 x 4096; did not finish within 15 min (ROADMAP)"},
    {"case": "gamma2_alpha on a 3 x 4 sign matrix",
     "evidence": "about 15 min: 4096 gamma2_star calls with 51 restarts each (ROADMAP)"},
    {"case": "eff_ns(magic_square^2)", "evidence": "about 23k LP variables; the dense simplex cannot hold it"},
)


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


RELAXATIONS = {"eff_ns": "no_signalling", "eff_local": "local"}


def _efficiency_ops(gb, game, eps_grid, variants, fn_names) -> list[Op]:
    ops = []
    for eps in eps_grid:
        for variant in variants:
            for fn_name in fn_names:
                relaxation = RELAXATIONS[fn_name]
                # Every pass asks for the same LP, so HiGHS solves it once a run.
                reference = functools.cache(
                    functools.partial(oracles.reference_eta, game.dense_V(), game.p, eps, variant, relaxation))

                def run(fn_name=fn_name, eps=eps, variant=variant):
                    return getattr(gb.bounds, fn_name)(game, eps, variant)

                def check(res, eps=eps, variant=variant, relaxation=relaxation, reference=reference):
                    oracles.check_efficiency(game, eps, variant, relaxation, res, reference())

                ops.append(Op(f"{fn_name}({game.name},{eps},{variant})", run, check))
    return ops


def partition_lp(gb, seed: int, workdir) -> list[Op]:
    chsh, ms = gb.games.chsh(), gb.games.magic_square()
    chsh2 = gb.games.repeat(chsh, 2)
    ops = []
    for game in (chsh, ms):
        ops += _efficiency_ops(gb, game, EPS_GRID, VARIANTS, ("eff_ns", "eff_local"))
    ops += _efficiency_ops(gb, chsh2, (0.1,), VARIANTS, ("eff_ns",))
    ops.append(Op("ns_game_value(chsh^2)", lambda: gb.bounds.ns_game_value(chsh2),
                  lambda v: oracles.check_no_signalling(chsh2, v)))
    return _shuffled(ops, seed)


# Seesaw restarts and repetition probes use the README's fixed seeds 7 and 0:
# the time to converge varies about 2x between restart seeds, which would
# swamp the run-to-run spread, and probe references exist for seed 0 only.
SEESAW_SEED = 7
PROBE_SEED = 0
PROBE_BUDGET = 200_000


def game_values(gb, seed: int, workdir) -> list[Op]:
    G = gb.games
    chsh, ms, mse = G.chsh(), G.magic_square(), G.mse()
    chsh2 = G.repeat(chsh, 2)
    ops = []
    for game in (chsh, ms, mse, chsh2):
        ops.append(Op(f"classical_value({game.name})", lambda g=game: G.classical_value(g),
                      lambda r, g=game: oracles.check_classical(gb, g, r)))
    for game in (chsh, ms, mse):
        ops.append(Op(f"ns_game_value({game.name})", lambda g=game: gb.bounds.ns_game_value(g),
                      lambda v, g=game: oracles.check_no_signalling(g, v)))
    for game, dims, restarts in ((chsh, (2, 2), 20), (ms, (4, 4), 20), (chsh2, (4, 4), 5)):
        ops.append(Op(f"seesaw({game.name},{dims},{restarts})",
                      lambda g=game, d=dims, r=restarts: G.seesaw(g, d, restarts=r, seed=SEESAW_SEED),
                      lambda res, g=game: oracles.check_seesaw(gb, g, res)))
    for game, single in ((chsh, 0.75), (ms, 8 / 9)):
        for n in (1, 2):
            for comm in (0, 1, 2):
                probe = gb.dpt.RepetitionProbe(game, n=n, comm_bits=comm, search_budget=PROBE_BUDGET, seed=PROBE_SEED)
                ops.append(Op(f"probe({game.name},n={n},comm={comm})",
                              lambda pr=probe: gb.dpt.empirical_repeated_value(pr),
                              lambda res, c=single**n: oracles.check_probe(res, c)))
    return _shuffled(ops, seed)


def xor_sandwich(gb, seed: int, workdir) -> list[Op]:
    cases = [("3x3", [[0, 0, 0], [0, 0, 1], [0, 1, 1]], 0.1)]
    cases += [("2x4", [[0, 0, 0, 1], [0, 1, 1, 0]], eps) for eps in EPS_GRID]
    cases.append(("chsh", [[0, 0], [0, 1]], 0.1))
    ops = []
    for label, f, eps in cases:
        f = np.array(f)
        p = np.full(f.shape, 1.0 / f.size)
        upper = functools.cache(functools.partial(oracles.reference_thm2_upper, f, p, eps))

        def check(res, label=label, f=f, p=p, eps=eps, upper=upper):
            oracles.check_thm2(label, f, p, eps, res, upper())

        ops.append(Op(f"check_thm2({label},{eps})", lambda f=f, p=p, eps=eps: gb.bounds.check_thm2(f, p, eps), check))
    return _shuffled(ops, seed)


def _run_cli(gb, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gb.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def readme_cli(gb, seed: int, workdir) -> list[Op]:
    s = str(seed % 2**31)
    matrix = workdir / "chsh_sign.json"
    matrix.write_text(json.dumps([[1, 1], [1, -1]]))
    commands = [
        "game value --builtin magic_square --method classical",
        f"game value --builtin chsh --method seesaw --restarts 20 --seed {SEESAW_SEED}",
        "bounds eff --builtin magic_square --eps 0.1 --variant average --relaxation ns",
        f"bounds gamma2 --matrix {matrix}",
        "dpt bound case-i --n 1000000 --c 0.0005 --nu 0.3 --l 2",
        f"dpt probe --builtin chsh --n 2 --comm-bits 1 --seed {PROBE_SEED}",
        f"diqkd run --n 2000 --alpha 0.5 --gamma 0.2 --delta 0.05 --runs 1000 --seed {s}",
        f"diqkd run --n 200 --boxes test_set --guess 40 --limit-bits 500 --seed {s}",
        "diqkd rate --alpha 0.04 --gamma 0.01 --delta 0.001 --c 0.001 --n 1000000 --nu 0.3 --beta 0.5",
        f"diqkd serfling --n 100 --gamma 0.2 --eps 0.2 --pattern threshold:59 --trials 100000 --seed {s}",
        f"diqkd sweep --n 5000 --alpha 0.5 --gamma 0.1,0.2 --delta 0.02,0.05 --c 0,0.001 --runs 50 --seed {s}",
    ]
    # This command is run once more outside the timed passes; its stdout
    # must repeat byte for byte.
    replayed = commands[7]
    first_output: dict[str, str] = {}
    ops = []
    for i, command in enumerate(commands):
        argv = command.split()

        def check(result, command=command, argv=argv):
            code, out, err = result
            oracles.require(code == 0, f"exit {code}: {err.strip()}")
            if argv[1] == "sweep":
                rows = list(csv.DictReader(io.StringIO(out)))
                oracles.require(len(rows) == 8, f"sweep printed {len(rows)} rows, want 8")
            else:
                json.loads(out)
            oracles.require(first_output.setdefault(command, out) == out, "stdout differs between passes")
            if command == replayed:
                again = _run_cli(gb, argv)[1]
                oracles.require(again == out, "same command and seed printed different bytes")

        ops.append(Op(f"cli[{i}] {argv[0]} {argv[1]}", lambda argv=argv: _run_cli(gb, argv), check))
    return _shuffled(ops, seed)


QKD_N = 10**6
QKD_DELTA = 0.05
QKD_LEASH = 5000


def _summary(rec) -> dict:
    return {"aborted": bool(rec.aborted), "qber": float(rec.qber), "tested": int(rec.T.size),
            "leaked_bits": int(rec.leaked_bits)}


def qkd_bulk(gb, seed: int, workdir) -> list[Op]:
    D = gb.diqkd
    s = seed % 2**31
    params = D.ProtocolParams(n=QKD_N, alpha=0.5, gamma=0.2, delta=QKD_DELTA, seed=s)

    def run(make_boxes, run_index, leash=0):
        rec = D.run_protocol(params, make_boxes(), budget=D.LeakageBudget(leash), run_index=run_index)
        return _summary(rec)

    ops = [
        Op(f"honest#{i}", lambda i=i: run(lambda: D.honest_boxes(QKD_DELTA, [s, i, 101]), i),
           lambda r: oracles.check_honest(r, QKD_DELTA))
        for i in range(3)
    ]
    ops.append(Op("baseline_cheater", lambda: run(D.baseline_cheating_boxes, 3), oracles.check_baseline))
    ops.append(Op("test_set_cheater", lambda: run(lambda: D.test_set_cheating_boxes(QKD_LEASH // 5), 4, QKD_LEASH),
                  lambda r: oracles.check_test_set(r, QKD_LEASH)))
    return _shuffled(ops, seed)


# name -> (builder, why the workload is in the benchmark)
WORKLOADS = {
    "partition-lp": (partition_lp, "bounds.solve_lp on degenerate efficiency LPs does nearly all the work"),
    "game-values": (game_values, "per-cell win loops, seesaw operator builds, dpt search, many small NS LPs"),
    "xor-sandwich": (xor_sandwich, "gamma2_star enumeration inside check_thm2 is about 95% of the pass"),
    "readme-cli": (readme_cli, "the README command session: 1000 short protocol runs plus cli glue"),
    "qkd-bulk": (qkd_bulk, "run_protocol at n = 10^6: per-round sampling and array copies set time and peak memory"),
}
