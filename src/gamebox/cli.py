"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags, malformed files,
invalid parameter ranges), 2 computation error (infeasible program,
exceeded budget, violated gate, unsupported capability).  Machine
output goes to stdout (or ``--out``); diagnostics to stderr.  All
randomness derives from ``--seed``; equal invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .errors import GameboxError, ValidationError, check_range


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input/output helpers
# ---------------------------------------------------------------------------


def _json_ready(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as
    ``None``, so that it serialises to strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list, tuple, np.ndarray)):
        return json.dumps(_json_ready(value), sort_keys=True)
    return str(value)


def _to_csv(doc) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(doc, list):
        if not doc:
            return ""
        columns = list(doc[0].keys())
        writer.writerow(columns)
        for row in doc:
            writer.writerow([_cell_text(row[c]) for c in columns])
    else:
        columns = sorted(doc.keys())
        writer.writerow(columns)
        writer.writerow([_cell_text(doc[c]) for c in columns])
    return buf.getvalue()


def _emit(doc, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(_json_ready(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that cannot be written as a file, before any work."""
    if os.path.isdir(path):
        raise ValidationError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValidationError(f"--out {path!r}: {parent!r} is not a directory")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _table(value, field: str, forms: str) -> np.ndarray:
    """A JSON input field as a float array; a ragged or non-numeric value
    is bad input that names the field and its accepted forms."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{field} must be {forms}") from None


def _load_game(args):
    from . import games

    if getattr(args, "builtin", None):
        return games.builtin_game(args.builtin)
    if getattr(args, "game", None):
        return games.game_from_json(_load_json(args.game))
    raise ValidationError("provide --builtin NAME or --game FILE")


def _int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise ValidationError(
            f"{name} must be an integer or comma-separated integers (finite, in plain digits), got {text!r}"
        ) from None


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite_float(v) for v in text.split(",") if v != "")
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"expected comma-separated finite numbers, got {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# handlers (each imports the gamebox modules it calls, so that a command
# loads only its own)
# ---------------------------------------------------------------------------


def _cmd_game_value(args):
    from . import games

    game = _load_game(args)
    label = game.name or args.game
    if args.method == "classical":
        res = games.classical_value(game, budget=args.budget)
        doc = {"game": label, "method": "classical", "value": res.value, "kind": res.kind}
    elif args.method == "seesaw":
        dims = _int_list(args.dims, "dims") if args.dims else tuple(max(2, s) for s in game.output_sizes)
        res = games.seesaw(game, dims, restarts=args.restarts, seed=args.seed)
        doc = {
            "game": label,
            "method": "seesaw",
            "value": res.value,
            "kind": res.kind,
            "local_dims": list(dims),
            "restarts": args.restarts,
            "seed": args.seed,
        }
    else:  # ns
        from . import bounds

        value = bounds.ns_game_value(game)
        doc = {"game": label, "method": "ns", "value": value, "kind": "exact"}
    return doc


def _cmd_game_builtin(args):
    from . import games

    return games.game_to_json(games.builtin_game(args.name))


def _cmd_bounds_eff(args):
    from . import bounds

    game = _load_game(args)
    fn = bounds.eff_ns if args.relaxation == "ns" else bounds.eff_local
    res = fn(game, args.eps, args.variant)
    return {
        "game": game.name or args.game,
        "eps": args.eps,
        **vars(res),
        "certificate": res.certificate.q if res.certificate is not None else None,
    }


def _cmd_bounds_gamma2(args):
    from . import bounds

    doc = _load_json(args.matrix)
    if args.alpha_approx is not None:
        if not isinstance(doc, dict) or "F" not in doc or "p" not in doc:
            raise ValidationError('gamma2 with --alpha-approx needs a file {"F": ..., "p": ...}')
        F = _table(doc["F"], '"F"', "a matrix of +-1 entries")
        p = _table(doc["p"], '"p"', "a matrix of probabilities")
        res = bounds.gamma2_alpha(F, p, args.alpha_approx)
        return {
            "quantity": "gamma2_alpha",
            "alpha": args.alpha_approx,
            "value": res.value,
            "kind": res.kind,
        }
    mat = doc["M"] if isinstance(doc, dict) and "M" in doc else doc
    forms = 'a matrix or {"M": matrix} ({"F", "p"} needs --alpha-approx)'
    M = _table(mat, "--matrix", forms)
    if M.ndim != 2:  # gamma2_star also takes a 3-d stack, which returns a list
        raise ValidationError(f"--matrix must be {forms}")
    res = bounds.gamma2_star(M)
    return {"quantity": "gamma2_star", "value": res.value, "upper": res.upper, "kind": res.kind}


def _cmd_bounds_check_thm2(args):
    from . import bounds

    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "f" not in doc or "p" not in doc:
        raise ValidationError('check-thm2 needs a file {"f": 0/1 matrix, "p": probability matrix}')
    f = _table(doc["f"], '"f"', "a 0/1 matrix")
    p = _table(doc["p"], '"p"', "a matrix of probabilities")
    res = bounds.check_thm2(f, p, args.eps)
    return {"eps": args.eps, **vars(res)}


def _cmd_dpt_bound(args):
    from . import dpt

    alphabets = list(_int_list(args.alphabets, "alphabets"))
    if args.which == "case-i":
        params = {"l": args.l, "n": args.n, "c": args.c, "nu": args.nu,
                  "alphabet_sizes": alphabets, "exponent_const": args.exponent_const}
        return {"bound_name": "case_i", "params": params, "value": dpt.dpt_case_i_bound(**params)}
    if args.which == "case-ii":
        if args.eff is None:
            raise ValidationError("case-ii needs --eff (a partition-bound efficiency)")
        params = {"l": args.l, "n": args.n, "c": args.c, "eps": args.eps, "zeta": args.zeta,
                  "eff": args.eff, "alphabet_sizes": alphabets, "exponent_const": args.exponent_const}
        return {"bound_name": "case_ii", "params": params, "value": dpt.dpt_case_ii_bound(**params)}
    # randv
    if args.t is None:
        raise ValidationError("randv needs --t")
    params = {"t": args.t, "n": args.n, "c": args.c, "l": args.l, "nu": args.nu,
              "beta_const": args.beta, "alphabet_sizes": alphabets, "mode": args.mode}
    return {"bound_name": "randv", "params": params, "value": dpt.randv_bound(**params)}


def _cmd_dpt_probe(args):
    from . import dpt

    game = _load_game(args)
    probe = dpt.RepetitionProbe(
        game=game, n=args.n, comm_bits=args.comm_bits,
        search_budget=args.budget, seed=args.seed,
    )
    done = dpt.empirical_repeated_value(probe)
    return {**vars(done), "game": game.name or args.game}


def _cmd_dpt_substate(args):
    from . import dpt

    doc = _load_json(args.input)
    keys = ("sigma_XB", "psi_X", "rho_B")
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise ValidationError(f"substate-check input file missing {key!r}")
    report = dpt.substate_perturbation_check_classical(
        *(_table(doc[key], repr(key), "a table of probabilities") for key in keys),
        args.c, args.eps, args.delta0, args.delta1,
    )
    return vars(report)


def _make_boxes(args):
    from . import diqkd

    if args.boxes == "honest":
        noise = args.box_delta if args.box_delta is not None else args.delta
        return diqkd.honest_boxes(noise, [args.seed, 0, 101])
    if args.boxes == "baseline":
        return diqkd.baseline_cheating_boxes()
    return diqkd.test_set_cheating_boxes(args.guess)


def _cmd_diqkd_run(args):
    from . import diqkd

    params = diqkd.ProtocolParams(
        n=args.n, alpha=args.alpha, gamma=args.gamma, delta=args.delta, seed=args.seed
    )
    adversary = diqkd.load_adversary(args.adversary) if args.adversary else None
    batch = diqkd.run_batch(params, _make_boxes(args), args.runs, adversary=adversary, limit_bits=args.limit_bits)
    aborts = int(np.count_nonzero(batch.aborted))
    return {
        **vars(params),
        "boxes": args.boxes,
        "runs": args.runs,
        "aborts": aborts,
        "abort_freq": aborts / args.runs,
        "qber_mean": float(np.mean(batch.qber)),
        "mismatch_mean": float(np.mean(batch.mismatch_S)),
        "leaked_bits_mean": float(np.mean(batch.leaked_bits)),
        "keys_equal_completed": int(np.count_nonzero(batch.keys_equal)),
        "completed": args.runs - aborts,
    }


def _cmd_diqkd_rate(args):
    from . import diqkd

    params = diqkd.KeyRateParams(
        alpha=args.alpha, gamma=args.gamma, delta=args.delta,
        c=args.c, n=args.n, nu=args.nu, beta=args.beta, PrE=args.pre,
    )
    return {**vars(params), **diqkd.key_rate(params)}


def _cmd_diqkd_sweep(args):
    from . import diqkd

    axes = {
        "n": list(_int_list(args.n, "n")),
        "alpha": list(_float_list(args.alpha)),
        "gamma": list(_float_list(args.gamma)),
        "delta": list(_float_list(args.delta)),
        "c": list(_float_list(args.c)),
        "nu": list(_float_list(args.nu)),
        "beta": list(_float_list(args.beta)),
    }
    rows = diqkd.sweep(diqkd.expand_grid(axes), args.runs, args.seed)
    best = max(rows, key=lambda r: r["rate_per_copy"], default=None)
    if best is not None and best["rate_per_copy"] > 0:
        print(
            f"best positive cell: rate_per_copy={best['rate_per_copy']:.6g} at "
            f"n={best['n']} alpha={best['alpha']} gamma={best['gamma']} "
            f"delta={best['delta']} c={best['c']} nu={best['nu']} beta={best['beta']}",
            file=sys.stderr,
        )
    else:
        print("no positive-rate cell in this grid", file=sys.stderr)
    return rows


def _pattern_from_spec(spec: str, n: int):
    """The checked P of ``iid:P``, or a uint8 string of n bits, checked for
    the sampler before it is built."""
    from . import diqkd

    check_range("n", n, 1, math.inf, integer=True)
    kind, _, value = spec.partition(":")
    try:
        if kind == "iid":
            return check_range("iid probability", float(value), 0.0, 1.0)
        good = {"ones": n, "zeros": 0}.get(spec)
        if kind == "threshold":
            good = check_range("threshold count", int(value), 0, n)
    except ValueError as exc:  # int("abc") / float("abc"), or a ValidationError
        raise ValidationError(f"bad pattern {spec!r}: {exc}") from None
    if good is None:
        raise ValidationError(f"unknown pattern {spec!r}; use ones | zeros | threshold:K | iid:P")
    diqkd._check_population(good, n)
    z = np.zeros(n, dtype=np.uint8)
    z[:good] = 1
    return z


def _cmd_diqkd_serfling(args):
    from . import diqkd

    pattern = _pattern_from_spec(args.pattern, args.n)
    res = diqkd.serfling_mc(args.n, args.gamma, args.eps, pattern, args.trials, args.seed)
    return {
        "n": args.n, "gamma": args.gamma, "eps": args.eps,
        "pattern": args.pattern, "trials": args.trials, "seed": args.seed, **res,
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, seed=True):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _add_game_source(p):
    p.add_argument("--builtin", default=None, help="builtin game name")
    p.add_argument("--game", default=None, help="path to a game JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gamebox", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    game = top.add_parser("game", help="game values and descriptions")
    game_sub = game.add_subparsers(dest="cmd", required=True)

    gv = game_sub.add_parser("value", help="classical / see-saw / no-signalling value")
    _add_game_source(gv)
    gv.add_argument("--method", choices=("classical", "seesaw", "ns"), default="classical")
    gv.add_argument("--restarts", type=int, default=20)
    gv.add_argument("--dims", default=None, help="comma-separated local dimensions for see-saw")
    gv.add_argument("--budget", type=int, default=10**8)
    _add_common(gv)
    gv.set_defaults(handler=_cmd_game_value)

    gb = game_sub.add_parser("builtin", help="print a builtin game in the JSON schema")
    gb.add_argument("name")
    _add_common(gb, seed=False)
    gb.set_defaults(handler=_cmd_game_builtin)

    bnd = top.add_parser("bounds", help="partition bounds and factorization norms")
    bnd_sub = bnd.add_subparsers(dest="cmd", required=True)

    be = bnd_sub.add_parser("eff", help="abort-augmented efficiency bound")
    _add_game_source(be)
    be.add_argument("--eps", type=_finite_float, default=0.0)
    be.add_argument("--variant", default="worst_case", help="worst_case | tilde | average")
    be.add_argument("--relaxation", choices=("ns", "local"), default="ns")
    _add_common(be, seed=False)
    be.set_defaults(handler=_cmd_bounds_eff)

    bg = bnd_sub.add_parser("gamma2", help="dual factorization norm / approximate variant")
    bg.add_argument("--matrix", required=True, help="JSON file: matrix, or {M}, or {F, p}")
    bg.add_argument("--alpha-approx", dest="alpha_approx", type=_finite_float, default=None)
    _add_common(bg, seed=False)
    bg.set_defaults(handler=_cmd_bounds_gamma2)

    bc = bnd_sub.add_parser("check-thm2", help="two-sided discrepancy/efficiency check")
    bc.add_argument("--input", required=True, help='JSON file {"f": ..., "p": ...}')
    bc.add_argument("--eps", type=_finite_float, default=0.0)
    _add_common(bc, seed=False)
    bc.set_defaults(handler=_cmd_bounds_check_thm2)

    dp = top.add_parser("dpt", help="direct-product bounds and probes")
    dp_sub = dp.add_subparsers(dest="cmd", required=True)

    db = dp_sub.add_parser("bound", help="closed-form bound evaluators")
    db.add_argument("which", choices=("case-i", "case-ii", "randv"))
    db.add_argument("--l", type=int, default=2)
    db.add_argument("--n", type=int, required=True)
    db.add_argument("--c", type=_finite_float, default=0.0)
    db.add_argument("--nu", type=_finite_float, default=0.0)
    db.add_argument("--eps", type=_finite_float, default=0.0)
    db.add_argument("--zeta", type=_finite_float, default=0.5)
    db.add_argument("--eff", type=_finite_float, default=None)
    db.add_argument("--t", type=int, default=None)
    db.add_argument("--beta", type=_finite_float, default=1.0)
    db.add_argument("--alphabets", default="4,4", help="comma-separated output alphabet sizes")
    db.add_argument("--exponent-const", dest="exponent_const", type=_finite_float, default=1.0)
    db.add_argument("--mode", choices=("generic", "mse"), default="generic")
    _add_common(db, seed=False)
    db.set_defaults(handler=_cmd_dpt_bound)

    dpr = dp_sub.add_parser("probe", help="empirical repeated value with communication")
    _add_game_source(dpr)
    dpr.add_argument("--n", type=int, default=1)
    dpr.add_argument("--comm-bits", dest="comm_bits", type=int, default=0)
    dpr.add_argument("--budget", type=int, default=2_000_000)
    _add_common(dpr)
    dpr.set_defaults(handler=_cmd_dpt_probe)

    ds = dp_sub.add_parser("substate-check", help="classical substate perturbation check")
    ds.add_argument("--input", required=True, help="JSON file {sigma_XB, psi_X, rho_B}")
    ds.add_argument("--c", type=_finite_float, default=0.0)
    ds.add_argument("--eps", type=_finite_float, default=0.0)
    ds.add_argument("--delta0", type=_finite_float, default=0.1)
    ds.add_argument("--delta1", type=_finite_float, default=0.1)
    _add_common(ds, seed=False)
    ds.set_defaults(handler=_cmd_dpt_substate)

    dq = top.add_parser("diqkd", help="key-distribution simulation and rates")
    dq_sub = dq.add_subparsers(dest="cmd", required=True)

    dr = dq_sub.add_parser("run", help="simulate protocol runs")
    dr.add_argument("--n", type=int, required=True)
    dr.add_argument("--alpha", type=_finite_float, default=0.5)
    dr.add_argument("--gamma", type=_finite_float, default=0.2)
    dr.add_argument("--delta", type=_finite_float, default=0.0)
    dr.add_argument("--runs", type=int, default=1)
    dr.add_argument("--boxes", choices=("honest", "baseline", "test_set"), default="honest")
    dr.add_argument("--box-delta", dest="box_delta", type=_finite_float, default=None,
                    help="device noise if different from the protocol delta")
    dr.add_argument("--guess", type=int, default=0, help="rounds the test_set cheater pre-leaks")
    dr.add_argument("--adversary", default=None, help="JSON adversary script")
    dr.add_argument("--limit-bits", dest="limit_bits", type=int, default=0)
    _add_common(dr)
    dr.set_defaults(handler=_cmd_diqkd_run)

    dra = dq_sub.add_parser("rate", help="closed-form key-rate evaluation")
    dra.add_argument("--alpha", type=_finite_float, required=True)
    dra.add_argument("--gamma", type=_finite_float, required=True)
    dra.add_argument("--delta", type=_finite_float, required=True)
    dra.add_argument("--c", type=_finite_float, default=0.0)
    dra.add_argument("--n", type=int, required=True)
    dra.add_argument("--nu", type=_finite_float, default=0.01)
    dra.add_argument("--beta", type=_finite_float, default=1.0)
    dra.add_argument("--pre", type=_finite_float, default=1.0, help="non-abort probability PrE")
    _add_common(dra, seed=False)
    dra.set_defaults(handler=_cmd_diqkd_rate)

    dsw = dq_sub.add_parser("sweep", help="grid evaluation to CSV/JSON")
    dsw.add_argument("--n", required=True, help="comma-separated values")
    dsw.add_argument("--alpha", required=True)
    dsw.add_argument("--gamma", required=True)
    dsw.add_argument("--delta", required=True)
    dsw.add_argument("--c", default="0.0")
    dsw.add_argument("--nu", default="0.01")
    dsw.add_argument("--beta", default="1.0")
    dsw.add_argument("--runs", type=int, default=0)
    _add_common(dsw)
    dsw.set_defaults(handler=_cmd_diqkd_sweep, format="csv")

    dse = dq_sub.add_parser("serfling", help="Monte Carlo sampling-tail check")
    dse.add_argument("--n", type=int, required=True)
    dse.add_argument("--gamma", type=_finite_float, required=True)
    dse.add_argument("--eps", type=_finite_float, required=True)
    dse.add_argument("--pattern", default="ones", help="ones | zeros | threshold:K (K ones) | iid:P (Bernoulli(P) "
                     "bits a trial); a trial draws only the count of good rounds in the string and in T")
    dse.add_argument("--trials", type=int, default=10000)
    _add_common(dse)
    dse.set_defaults(handler=_cmd_diqkd_serfling)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: a parse leaves the tree
    as it was, and building it costs some forty parses."""
    return build_parser()


def exit_code(work) -> int:
    """Run ``work()`` and return the exit code of its outcome: 0 when it
    returns, 1 for bad input (``ValidationError``, an unreadable file,
    malformed JSON), 2 for any other ``GameboxError``; a refusal prints one
    line on stderr.  The command and the experiment scripts all exit
    through here."""
    try:
        work()
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"gamebox: {exc}", file=sys.stderr)
        return 1
    except GameboxError as exc:
        print(f"gamebox: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as done:
        return int(done.code or 0)

    def work():
        if args.out:
            _check_out(args.out)
        _emit(args.handler(args), args)

    return exit_code(work)


if __name__ == "__main__":
    sys.exit(main())
