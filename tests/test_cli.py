"""Command-line surface: argument handling, exit codes, output formats."""

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gamebox
from gamebox import cli, diqkd, dpt, games


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_subcommand_exits_one(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_builtin_exits_one(capsys):
    code, _, err = run(capsys, "game", "value", "--builtin", "nope")
    assert code == 1
    assert "unknown builtin" in err


def test_missing_game_file_exits_one(capsys):
    code, _, err = run(capsys, "game", "value", "--game", "/no/such/file.json")
    assert code == 1
    assert err


@pytest.mark.parametrize(
    "command",
    [
        ("game", "value", "--method", "classical"),
        ("game", "value", "--method", "ns"),
        ("bounds", "eff", "--eps", "0.1", "--relaxation", "local"),
    ],
)
def test_nan_input_distribution_exits_one(capsys, tmp_path, command):
    doc = games.game_to_json(games.chsh())
    doc["p"] = [math.nan, 0.5, 0.25, 0.25]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, "--game", str(path))
    assert code == 1
    assert out == ""
    assert "non-finite" in err


# Arguments that let each subcommand parse, so that a failure in the test
# below can only come from the value given to the flag under test.
_PARSEABLE = {
    ("game", "value"): ["--builtin", "chsh"],
    ("bounds", "eff"): ["--builtin", "chsh"],
    ("bounds", "gamma2"): ["--matrix", "m.json"],
    ("bounds", "check-thm2"): ["--input", "in.json"],
    ("dpt", "bound"): ["case-i", "--n", "10"],
    ("dpt", "substate-check"): ["--input", "in.json"],
    ("diqkd", "run"): ["--n", "10"],
    ("diqkd", "rate"): ["--alpha", "0.1", "--gamma", "0.1", "--delta", "0.1", "--n", "10"],
    ("diqkd", "serfling"): ["--n", "10", "--gamma", "0.1", "--eps", "0.1"],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _float_flags():
    """(subcommand, flag) for every option of the parser that takes one float."""
    return [
        ((group, cmd), action.option_strings[0])
        for group, group_parser in _subparsers(cli.build_parser()).items()
        for cmd, cmd_parser in _subparsers(group_parser).items()
        for action in cmd_parser._actions
        if action.type in (float, cli._finite_float)
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", _float_flags(), ids=lambda v: " ".join(v) if isinstance(v, tuple) else v
)
def test_non_finite_float_flag_exits_one(capsys, command, flag, value):
    argv = [*command, *_PARSEABLE[command]]
    cli.build_parser().parse_args([*argv, f"{flag}=0.5"])  # a finite value parses
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert "not a finite number" in err


@pytest.mark.parametrize("flag", ["--n", "--alpha", "--gamma", "--delta", "--c", "--nu", "--beta"])
def test_non_finite_sweep_value_exits_one(capsys, flag):
    axes = {"--n": "100", "--alpha": "0.5", "--gamma": "0.2", "--delta": "0.01"}
    axes[flag] = "0.01,nan"
    code, out, err = run(capsys, "diqkd", "sweep", *(t for kv in axes.items() for t in kv))
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_fractional_sweep_n_exits_one(capsys):
    # it was truncated to 5000
    code, out, err = run(capsys, "diqkd", "sweep", "--n", "5000.5", "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.01")
    assert code == 1
    assert out == ""
    assert "n must be an integer" in err


@pytest.mark.parametrize("n", ["1e300", "2.0"])
def test_sweep_n_must_be_written_as_an_integer(capsys, n):
    # 1e300 died inside numpy; 2.0 ran as n = 2
    code, out, err = run(capsys, "diqkd", "sweep", "--n", n, "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.01")
    assert code == 1
    assert out == ""
    assert "n must be an integer" in err


def test_probe_of_a_huge_repetition_exits_two_with_a_short_message(capsys):
    # the budget message formatted 2**(4 * 10**6), past Python's 4300-digit
    # limit: a ValueError traceback
    code, out, err = run(capsys, "dpt", "probe", "--builtin", "chsh", "--n", "1000000", "--comm-bits", "1", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("gamebox: ") and "budget" in err
    assert len(err) < 200


_SERFLING = ("diqkd", "serfling", "--n", "10", "--gamma", "0.2", "--eps", "0.2")
_SEESAW = ("game", "value", "--builtin", "chsh", "--method", "seesaw")
_ROUND = {"from": "eve", "to": "bob_box", "bits": 1, "function_id": "zeros"}
_ADVERSARY = ("--adversary", "{tmp}/adv.json")
_GAMMA2 = ("bounds", "gamma2", "--matrix", "{tmp}/in.json")
_RAGGED = [[0.5, 0.25], [0.25]]
_OUT = ("dpt", "bound", "case-i", "--n", "10", "--out")
_NOT_UTF8 = {"in.json": b"\xff\xfe\x00"}


@pytest.mark.parametrize(
    "argv, files",
    [
        ((*_SERFLING, "--pattern", "threshold:abc"), None),
        ((*_SERFLING, "--pattern", "iid:abc"), None),
        (("diqkd", "run", "--n", "10", *_ADVERSARY), {"adv.json": {"rounds": [dict(_ROUND, bits="x")]}}),
        (("diqkd", "run", "--n", "10", *_ADVERSARY), {"adv.json": {"rounds": [_ROUND, 5]}}),
        (("diqkd", "run", "--n", "10", "--runs", "0"), None),
        ((*_SEESAW, "--restarts", "0"), None),
        ((*_SEESAW, "--restarts", "-1"), None),
        ((*_SEESAW, "--seed", "-5"), None),
        ((*_SERFLING, "--seed", "-1"), None),
        (("diqkd", "serfling", "--n", "-5", "--gamma", "0.2", "--eps", "0.2", "--pattern", "ones"), None),
        (("dpt", "probe", "--builtin", "chsh", "--n", "1", "--seed", "-1"), None),
        (("dpt", "probe", "--builtin", "chsh", "--budget", "-5"), None),
        (("game", "value", "--builtin", "chsh", "--budget", "-1"), None),
        (_GAMMA2, {"in.json": {"F": [[1, 1], [1, -1]]}}),
        (_GAMMA2, {"in.json": _RAGGED}),
        ((*_GAMMA2, "--alpha-approx", "2"), {"in.json": {"F": [[1, 1], [1, -1]], "p": _RAGGED}}),
        (("bounds", "check-thm2", "--input", "{tmp}/in.json"), {"in.json": {"f": [[0, 0], [0, 1]], "p": _RAGGED}}),
        (("dpt", "substate-check", "--input", "{tmp}/in.json"),
         {"in.json": {"sigma_XB": "x", "psi_X": [0.5, 0.5], "rho_B": [0.5, 0.5]}}),
        (("dpt", "substate-check", "--input", "{tmp}/in.json"), {"in.json": 5}),
        (("bounds", "eff", "--builtin", "chsh", "--variant", "median"), None),
        ((*_OUT, "{tmp}/missing/x.json"), None),
        ((*_OUT, "{tmp}"), None),
        (("game", "value", "--game", "{tmp}/in.json"), _NOT_UTF8),
        (_GAMMA2, _NOT_UTF8),
        (("bounds", "check-thm2", "--input", "{tmp}/in.json"), _NOT_UTF8),
        (("dpt", "substate-check", "--input", "{tmp}/in.json"), _NOT_UTF8),
        (("diqkd", "run", "--n", "10", "--adversary", "{tmp}/in.json"), _NOT_UTF8),
    ],
    ids=["threshold-not-int", "iid-not-float", "adversary-bits-not-int", "adversary-round-not-object", "zero-runs",
         "seesaw-zero-restarts", "seesaw-negative-restarts", "seesaw-negative-seed", "serfling-negative-seed",
         "serfling-negative-n",
         "probe-negative-seed", "probe-negative-budget", "classical-negative-budget", "gamma2-object-without-M",
         "gamma2-ragged-matrix", "gamma2-alpha-ragged-p", "thm2-ragged-p", "substate-sigma-not-a-table",
         "substate-file-not-object", "eff-unknown-variant", "out-in-missing-directory", "out-is-a-directory",
         "game-not-utf8", "gamma2-not-utf8", "thm2-not-utf8", "substate-not-utf8", "adversary-not-utf8"],
)
def test_bad_input_exits_one_without_traceback(capsys, tmp_path, argv, files):
    for name, doc in (files or {}).items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            (tmp_path / name).write_text(json.dumps(doc))
    argv = tuple(a.replace("{tmp}", str(tmp_path)) for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("gamebox: ")
    if files is _NOT_UTF8:
        assert "in.json" in err


@pytest.mark.parametrize(
    "field, value",
    [("V", 0.5), ("V", 2), ("V", math.nan), ("players", math.nan)],
    ids=["V=0.5", "V=2", "V=nan", "players=nan"],
)
def test_game_file_with_bad_entry_exits_one(capsys, tmp_path, field, value):
    doc = games.game_to_json(games.chsh())
    if field == "V":
        doc["V"][3] = value  # a losing cell (a = b = 0, x = y = 1): cast to bool it would become a win
    else:
        doc[field] = value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "game", "value", "--game", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("gamebox: ")


def test_json_output_is_strict_and_csv_unchanged(capsys):
    argv = ("diqkd", "sweep", "--n", "200", "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.0")

    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")

    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    (row,) = json.loads(out, parse_constant=refuse)
    assert row["abort_freq"] is None and row["qber"] is None  # not measured with --runs 0
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert out.splitlines()[1].split(",")[8:10] == ["nan", "nan"]


def test_computation_error_exits_two(capsys, tmp_path):
    # gamma2 alpha-approximation refuses sign matrices beyond 12 cells
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"F": [[1] * 5] * 3, "p": [[1 / 15] * 5] * 3}))
    code, _, err = run(capsys, "bounds", "gamma2", "--matrix", str(path), "--alpha-approx", "2.0")
    assert code == 2
    assert "capped" in err


def test_gate_violation_exits_two(capsys):
    code, _, err = run(
        capsys, "dpt", "bound", "case-ii", "--n", "50", "--c", "0.5", "--eps", "0.3",
        "--zeta", "0.5", "--eff", "10", "--l", "1",
    )
    assert code == 2


def test_ns_value_over_the_lp_limit_exits_two_before_any_row(capsys, tmp_path, monkeypatch):
    # chsh^4's dense NS rows would take 3.64 GiB
    from gamebox import bounds

    def reached(*args):
        raise AssertionError("rows built for an LP over the limit")

    monkeypatch.setattr(bounds, "_ns_constraint_rows", reached)
    path = tmp_path / "chsh4.json"
    path.write_text(json.dumps(games.game_to_json(games.repeat(games.chsh(), 4))))
    code, out, err = run(capsys, "game", "value", "--game", str(path), "--method", "ns")
    assert code == 2
    assert out == ""
    assert "65536 LP variables exceed the limit 25000" in err


# ---------------------------------------------------------------------------
# game commands
# ---------------------------------------------------------------------------


def test_game_value_builtin_classical(capsys):
    code, out, _ = run(capsys, "game", "value", "--builtin", "magic_square", "--method", "classical")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(8 / 9, abs=1e-12)
    assert doc["kind"] == "exact"
    # JSON numbers round-trip to the exact binary float (full precision)
    assert "0.8888888888888" in out


def test_game_value_from_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(games.game_to_json(games.chsh())))
    code, out, _ = run(capsys, "game", "value", "--game", str(path))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.75, abs=1e-12)


def test_game_value_seesaw_and_ns(capsys):
    code, out, _ = run(
        capsys, "game", "value", "--builtin", "chsh", "--method", "seesaw",
        "--restarts", "3", "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] >= 0.8535
    assert doc["local_dims"] == [2, 2]

    code, out, _ = run(capsys, "game", "value", "--builtin", "chsh", "--method", "ns")
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_game_builtin_description_round_trips(capsys):
    code, out, _ = run(capsys, "game", "builtin", "mse")
    assert code == 0
    game = games.game_from_json(json.loads(out))
    assert game.input_sizes == (6, 3, 1)


# ---------------------------------------------------------------------------
# bounds commands
# ---------------------------------------------------------------------------


def test_bounds_eff_json_fields(capsys):
    code, out, _ = run(
        capsys, "bounds", "eff", "--builtin", "magic_square", "--eps", "0.0",
        "--variant", "average", "--relaxation", "ns",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["eff"] == pytest.approx(1.0, abs=1e-6)
    assert doc["variant"] == "average"
    assert doc["relaxation"] == "no_signalling"
    assert doc["certificate"] is not None


def test_bounds_eff_local_at_the_eta_floor_prints_null(capsys, tmp_path):
    # input (1, 1) has no winning answer, so eta sits at its floor
    doc = games.game_to_json(games.chsh())
    V = np.array(doc["V"]).reshape(2, 2, 2, 2)
    V[..., 1, 1] = 0
    doc["V"] = V.reshape(-1).tolist()
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))

    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")

    code, out, _ = run(capsys, "bounds", "eff", "--game", str(path), "--eps", "0.0", "--relaxation", "local")
    assert code == 0
    assert json.loads(out, parse_constant=refuse)["eff"] is None


def test_bounds_gamma2_matrix_forms(capsys, tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps([[0.25, 0.25], [0.25, -0.25]]))
    code, out, _ = run(capsys, "bounds", "gamma2", "--matrix", str(raw))
    assert code == 0
    value = json.loads(out)["value"]
    assert value == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"M": [[0.25, 0.25], [0.25, -0.25]]}))
    code, out2, _ = run(capsys, "bounds", "gamma2", "--matrix", str(wrapped))
    assert json.loads(out2)["value"] == pytest.approx(value, abs=1e-12)


def test_bounds_gamma2_prints_upper_and_has_no_restarts_flag(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 1, 1], [1, -1, 1], [1, 1, -1]]))
    code, out, _ = run(capsys, "bounds", "gamma2", "--matrix", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "lower_bound"
    assert doc["value"] <= doc["upper"] <= doc["value"] * (1 + 1e-7)
    code, out, _ = run(capsys, "bounds", "gamma2", "--matrix", str(path), "--restarts", "5")
    assert (code, out) == (1, "")


def test_bounds_check_thm2(capsys, tmp_path):
    path = tmp_path / "xor.json"
    path.write_text(json.dumps({"f": [[0, 0], [0, 1]], "p": [[0.25] * 2] * 2}))
    code, out, _ = run(capsys, "bounds", "check-thm2", "--input", str(path), "--eps", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["lower"] <= doc["upper"] + 1e-6


# ---------------------------------------------------------------------------
# dpt commands
# ---------------------------------------------------------------------------


def test_dpt_bound_case_i(capsys):
    code, out, _ = run(
        capsys, "dpt", "bound", "case-i", "--l", "2", "--n", "400", "--c", "0.001", "--nu", "0.4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_name"] == "case_i"
    params = dict(l=2, n=400, c=0.001, nu=0.4, alphabet_sizes=[4, 4], exponent_const=1.0)
    assert doc["params"] == params
    assert doc["value"] == dpt.dpt_case_i_bound(**params)


@pytest.mark.parametrize(
    "which,extra", [("case-i", ()), ("case-ii", ("--c", "2", "--eff", "1e6")), ("randv", ("--t", "10"))]
)
def test_dpt_bound_evaluates_what_it_prints(capsys, which, extra):
    code, out, _ = run(capsys, "dpt", "bound", which, "--l", "1", "--n", "50", "--nu", "0.3", "--eps", "0.2",
                       "--alphabets", "2,2,2", "--exponent-const", "2", *extra)
    assert code == 0
    doc = json.loads(out)
    bound = {"case-i": dpt.dpt_case_i_bound, "case-ii": dpt.dpt_case_ii_bound, "randv": dpt.randv_bound}[which]
    assert doc["value"] == bound(**doc["params"])


def test_dpt_bound_checks_only_the_flags_it_reads(capsys):
    # case-i reads neither --eps nor --zeta, as randv does not
    argv = ("dpt", "bound", "case-i", "--l", "2", "--n", "400", "--c", "0.001", "--nu", "0.4")
    code, out, _ = run(capsys, *argv, "--eps", "2", "--zeta", "-1")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    # an empty alphabet list is refused where the bound needs it
    code, out, err = run(capsys, *argv, "--alphabets", "")
    assert code == 1
    assert out == "" and "total output alphabet" in err


def test_dpt_bound_randv_mse(capsys):
    code, out, _ = run(
        capsys, "dpt", "bound", "randv", "--n", "1000", "--t", "10", "--c", "0.0",
        "--nu", "0.0", "--beta", "1.0", "--mode", "mse",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx((1.1 / 9) ** 10, rel=1e-9)


@pytest.mark.parametrize("extra", [("--t", "0"), ("--t", "2", "--mode", "mse")], ids=["t0", "mse"])
def test_dpt_bound_randv_checks_the_alphabets_it_is_given(capsys, extra):
    # neither t = 0 (bound 1) nor mse mode (no alphabet in the base) reads
    # the alphabet sizes, and neither lets a bad one through
    code, out, err = run(capsys, "dpt", "bound", "randv", "--n", "10", "--alphabets", "0,-3", *extra)
    assert code == 1
    assert out == "" and "alphabet size" in err
    assert run(capsys, "dpt", "bound", "randv", "--n", "10", *extra)[0] == 0


def test_dpt_probe_cli_matches_api(capsys):
    code, out, _ = run(
        capsys, "dpt", "probe", "--builtin", "magic_square", "--n", "1", "--comm-bits", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_value"] == pytest.approx(1.0, abs=1e-12)
    assert doc["kind"] == "exhaustive"


def test_dpt_substate_check_cli(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(
        json.dumps(
            {
                "sigma_XB": [[0.25, 0.25], [0.25, 0.25]],
                "psi_X": [0.5, 0.5],
                "rho_B": [0.5, 0.5],
            }
        )
    )
    code, out, _ = run(
        capsys, "dpt", "substate-check", "--input", str(path), "--c", "0.0",
        "--eps", "0.1", "--delta0", "0.2", "--delta1", "0.1",
    )
    assert code == 0
    assert json.loads(out)["status"] == "feasible"


# ---------------------------------------------------------------------------
# diqkd commands
# ---------------------------------------------------------------------------


def test_diqkd_run_summary(capsys):
    code, out, _ = run(
        capsys, "diqkd", "run", "--n", "100", "--alpha", "0.5", "--gamma", "0.4",
        "--delta", "0.0", "--runs", "4", "--seed", "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["runs"] == 4
    assert doc["aborts"] == 0
    assert doc["keys_equal_completed"] == 4
    assert doc["qber_mean"] == 0.0


def test_diqkd_run_with_adversary_budget_error(capsys, tmp_path):
    path = tmp_path / "adv.json"
    path.write_text(
        json.dumps({"rounds": [{"from": "eve", "to": "bob_box", "bits": 11, "function_id": "zeros"}]})
    )
    code, _, err = run(
        capsys, "diqkd", "run", "--n", "50", "--delta", "0.0", "--adversary", str(path),
        "--limit-bits", "10",
    )
    assert code == 2
    assert "exceeds budget" in err


def test_diqkd_rate_cli(capsys):
    code, out, _ = run(
        capsys, "diqkd", "rate", "--alpha", "0.25", "--gamma", "0", "--delta", "0",
        "--c", "0", "--n", "1000", "--nu", "0.3", "--pre", "1.0",
    )
    assert code == 0
    doc = json.loads(out)
    # alpha (nu - beta sqrt(alpha)) n with the remaining terms switched off
    assert doc["hmin_minus_h0_bits"] == pytest.approx(0.25 * (0.3 - 0.5) * 1000, abs=1e-9)


def test_diqkd_sweep_csv_header_and_determinism(capsys):
    argv = (
        "diqkd", "sweep", "--n", "200", "--alpha", "0.5", "--gamma", "0.2",
        "--delta", "0.0,0.02", "--runs", "3", "--seed", "9",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header = out.splitlines()[0]
    assert header == ",".join(diqkd.SWEEP_COLUMNS)
    assert len(out.splitlines()) == 3  # header + two cells
    code, out2, _ = run(capsys, *argv)
    assert out2 == out


def test_diqkd_serfling_cli_patterns(capsys):
    code, out, _ = run(
        capsys, "diqkd", "serfling", "--n", "50", "--gamma", "0.2", "--eps", "0.2",
        "--pattern", "threshold:25", "--trials", "500", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["empirical"] <= 1.0
    assert doc["pattern"] == "threshold:25"

    code, out, _ = run(
        capsys, "diqkd", "serfling", "--n", "50", "--gamma", "0.2", "--eps", "0.2",
        "--pattern", "iid:0.5", "--trials", "200", "--seed", "3",
    )
    assert code == 0

    code, _, _ = run(
        capsys, "diqkd", "serfling", "--n", "50", "--gamma", "0.2", "--eps", "0.2",
        "--pattern", "sometimes",
    )
    assert code == 1


@pytest.mark.parametrize("pattern", ["ones", "zeros", "threshold:2000000000", "iid:0.5"])
def test_serfling_pattern_numpy_cannot_sample_is_refused_before_it_is_built(capsys, pattern):
    # a string of 3 * 10^9 bits would take 3 GB before the sampler's check
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "diqkd", "serfling", "--n", "3000000000", "--gamma", "0.2", "--eps", "0.2", "--pattern", pattern
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert "below 1000000000" in err or "i.i.d. pattern" in err
    assert peak < 10**6


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "game", "value", "--builtin", "chsh", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] == pytest.approx(0.75)


def test_csv_format_single_document(capsys):
    code, out, _ = run(capsys, "game", "value", "--builtin", "chsh", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == sorted(["game", "method", "value", "kind"])


def test_json_floats_carry_full_precision(capsys):
    code, out, _ = run(
        capsys, "bounds", "eff", "--builtin", "magic_square", "--eps", "0.0",
        "--variant", "worst_case", "--relaxation", "local",
    )
    doc = json.loads(out)
    # eta = 2/3 must survive a text round-trip bit-for-bit
    assert doc["eta"] == pytest.approx(2 / 3, abs=1e-12)
    assert "0.666666666666" in out


def test_repeated_invocations_identical(capsys):
    argv = (
        "diqkd", "run", "--n", "150", "--alpha", "0.5", "--gamma", "0.3",
        "--delta", "0.05", "--runs", "5", "--seed", "13",
    )
    outputs = {run(capsys, *argv)[1] for _ in range(3)}
    assert len(outputs) == 1


# The stdout of the README diqkd commands at their README seeds (the honest
# run with the first 50 of its 1000 runs; the sweep is the 8-cell grid the
# benchmark runs).  Any change in a draw stream or a kernel's arithmetic
# shows here.
PINNED_DIQKD_OUTPUTS = [
    (
        "diqkd run --n 2000 --alpha 0.5 --gamma 0.2 --delta 0.05 --runs 50 --seed 1",
        "{\n"
        '  "abort_freq": 0.0,\n'
        '  "aborts": 0,\n'
        '  "alpha": 0.5,\n'
        '  "boxes": "honest",\n'
        '  "completed": 50,\n'
        '  "delta": 0.05,\n'
        '  "gamma": 0.2,\n'
        '  "keys_equal_completed": 0,\n'
        '  "leaked_bits_mean": 0.0,\n'
        '  "mismatch_mean": 0.049479999999999996,\n'
        '  "n": 2000,\n'
        '  "qber_mean": 0.05020000000000002,\n'
        '  "runs": 50,\n'
        '  "seed": 1\n'
        "}\n",
    ),
    (
        "diqkd run --n 200 --boxes test_set --guess 40 --limit-bits 500 --seed 1",
        "{\n"
        '  "abort_freq": 1.0,\n'
        '  "aborts": 1,\n'
        '  "alpha": 0.5,\n'
        '  "boxes": "test_set",\n'
        '  "completed": 0,\n'
        '  "delta": 0.0,\n'
        '  "gamma": 0.2,\n'
        '  "keys_equal_completed": 0,\n'
        '  "leaked_bits_mean": 200.0,\n'
        '  "mismatch_mean": 0.34,\n'
        '  "n": 200,\n'
        '  "qber_mean": 0.4,\n'
        '  "runs": 1,\n'
        '  "seed": 1\n'
        "}\n",
    ),
    (
        "diqkd sweep --n 5000 --alpha 0.5 --gamma 0.1,0.2 --delta 0.02,0.05 --c 0,0.001 --runs 50 --seed 1",
        "n,alpha,gamma,delta,c,nu,beta,PrE_est,abort_freq,qber,rate_bits,rate_per_copy,eps_smooth,seed\n"
        "5000,0.5,0.1,0.02,0.0,0.01,1.0,0.98,0.02,0.018080000000000016,-4003.6920503233923,-0.8007384100646785,0.007971938775510204,1\n"
        "5000,0.5,0.1,0.02,0.001,0.01,1.0,0.98,0.02,0.018080000000000016,-4082.748991827602,-0.8165497983655203,0.007971938775510204,1\n"
        "5000,0.5,0.1,0.05,0.0,0.01,1.0,1.0,0.0,0.04896000000000003,-5602.407427403181,-1.1204814854806362,1.7763568394002418e-15,1\n"
        "5000,0.5,0.1,0.05,0.001,0.01,1.0,1.0,0.0,0.04896000000000003,-5681.464368907391,-1.1362928737814781,1.7763568394002418e-15,1\n"
        "5000,0.5,0.2,0.02,0.0,0.01,1.0,1.0,0.0,0.02256000000000002,-4253.662903977733,-0.8507325807955465,0.0078125,1\n"
        "5000,0.5,0.2,0.02,0.001,0.01,1.0,1.0,0.0,0.02256000000000002,-4332.719845481942,-0.8665439690963883,0.0078125,1\n"
        "5000,0.5,0.2,0.05,0.0,0.01,1.0,1.0,0.0,0.04956000000000003,-5852.407427403181,-1.1704814854806362,1.7763568394002418e-15,1\n"
        "5000,0.5,0.2,0.05,0.001,0.01,1.0,1.0,0.0,0.04956000000000003,-5931.464368907391,-1.1862928737814782,1.7763568394002418e-15,1\n",
    ),
    (
        "diqkd serfling --n 100 --gamma 0.2 --eps 0.2 --pattern threshold:59 --trials 100000 --seed 8",
        "{\n"
        '  "bound": 0.3298769776932235,\n'
        '  "empirical": 0.02721,\n'
        '  "eps": 0.2,\n'
        '  "gamma": 0.2,\n'
        '  "n": 100,\n'
        '  "pattern": "threshold:59",\n'
        '  "seed": 8,\n'
        '  "trials": 100000\n'
        "}\n",
    ),
]


@pytest.mark.parametrize(
    "command,expected", PINNED_DIQKD_OUTPUTS, ids=["run-honest", "run-test_set", "sweep", "serfling"]
)
def test_readme_diqkd_outputs_are_pinned(capsys, command, expected):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out == expected


# n = 10^6 with an input_prefix adversary: inputs of several chunks, and a
# payload that reads only the first four of 10^6 rounds.  The adversary
# changes only leaked_bits_mean: without it the runs print the same numbers.
PINNED_BULK_ADVERSARY_ARGV = [
    "diqkd", "run", "--n", "1000000", "--alpha", "0.5", "--gamma", "0.2", "--delta", "0.05", "--runs", "2",
    "--adversary", '{"rounds": [{"from": "alice_box", "to": "eve", "bits": 8, "function_id": "input_prefix"}]}',
    "--limit-bits", "8", "--seed", "1",
]
PINNED_BULK_ADVERSARY_OUTPUT = (
    "{\n"
    '  "abort_freq": 0.0,\n'
    '  "aborts": 0,\n'
    '  "alpha": 0.5,\n'
    '  "boxes": "honest",\n'
    '  "completed": 2,\n'
    '  "delta": 0.05,\n'
    '  "gamma": 0.2,\n'
    '  "keys_equal_completed": 0,\n'
    '  "leaked_bits_mean": 8.0,\n'
    '  "mismatch_mean": 0.049949999999999994,\n'
    '  "n": 1000000,\n'
    '  "qber_mean": 0.05022000000000004,\n'
    '  "runs": 2,\n'
    '  "seed": 1\n'
    "}\n"
)


def test_bulk_adversary_run_output_is_pinned(capsys):
    code, out, _ = run(capsys, *PINNED_BULK_ADVERSARY_ARGV)
    assert code == 0
    assert out == PINNED_BULK_ADVERSARY_OUTPUT


def test_an_unspent_leash_changes_no_output(capsys):
    argv = PINNED_DIQKD_OUTPUTS[0][0].split()
    outputs = {run(capsys, *argv, "--limit-bits", bits)[1] for bits in ("0", "5")}
    assert outputs == {PINNED_DIQKD_OUTPUTS[0][1]}


# The README seesaw command.  The value's last digits follow the rounding
# of the batched contractions: 0.8535533905932748 before them.
PINNED_SEESAW_OUTPUT = (
    "{\n"
    '  "game": "chsh",\n'
    '  "kind": "lower_bound",\n'
    '  "local_dims": [\n'
    "    2,\n"
    "    2\n"
    "  ],\n"
    '  "method": "seesaw",\n'
    '  "restarts": 20,\n'
    '  "seed": 7,\n'
    '  "value": 0.8535533905932744\n'
    "}\n"
)


def test_readme_seesaw_output_is_pinned(capsys):
    code, out, _ = run(capsys, *"game value --builtin chsh --method seesaw --restarts 20 --seed 7".split())
    assert code == 0
    assert out == PINNED_SEESAW_OUTPUT


# The README probe command: chsh at n = 2 with one bit is exhaustive, so
# both the value and the certificate (the first optimal protocol in the
# search order) are fixed.
PINNED_PROBE_OUTPUT = (
    "{\n"
    '  "best_value": 0.75,\n'
    '  "certificate": {\n'
    '    "f_A": [\n'
    "      [\n"
    "        0\n"
    "      ],\n"
    "      [\n"
    "        0\n"
    "      ],\n"
    "      [\n"
    "        0\n"
    "      ],\n"
    "      [\n"
    "        0\n"
    "      ]\n"
    "    ],\n"
    '    "f_B": [\n'
    "      [\n"
    "        0,\n"
    "        0\n"
    "      ],\n"
    "      [\n"
    "        0,\n"
    "        1\n"
    "      ],\n"
    "      [\n"
    "        0,\n"
    "        2\n"
    "      ],\n"
    "      [\n"
    "        0,\n"
    "        3\n"
    "      ]\n"
    "    ],\n"
    '    "g_A": [\n'
    "      0,\n"
    "      0,\n"
    "      0,\n"
    "      1\n"
    "    ],\n"
    '    "g_B": [\n'
    "      0,\n"
    "      0,\n"
    "      0,\n"
    "      0\n"
    "    ],\n"
    '    "kA": 1,\n'
    '    "kB": 0\n'
    "  },\n"
    '  "comm_bits": 1,\n'
    '  "game": "chsh",\n'
    '  "kind": "exhaustive",\n'
    '  "n": 2,\n'
    '  "search_budget": 2000000,\n'
    '  "seed": 0\n'
    "}\n"
)


def test_readme_probe_output_is_pinned(capsys):
    code, out, _ = run(capsys, *"dpt probe --builtin chsh --n 2 --comm-bits 1 --seed 0".split())
    assert code == 0
    assert out == PINNED_PROBE_OUTPUT


# Outputs captured before the mse table was built by broadcasting and
# before seesaw restarts ran in lockstep.  magic_square at seed 7 reaches
# 1 - 1e-9 in restart 0, which runs alone; its value was re-pinned when the
# POVM update moved to round-robin pair rounds (0.9999999991736805 before).
PINNED_GAME_VALUE_OUTPUTS = [
    (
        "game value --builtin mse --method ns",
        # the interior-point optimum of the one sub-LP solved, 1/9 within its checked gap
        '{\n  "game": "mse",\n  "kind": "exact",\n  "method": "ns",\n  "value": 0.11111111111111098\n}\n',
    ),
    # the interior-point optima lie 7.4e-13 and 4.4e-13 above 1 and are cut to 1
    (
        "game value --builtin chsh --method ns",
        '{\n  "game": "chsh",\n  "kind": "exact",\n  "method": "ns",\n  "value": 1.0\n}\n',
    ),
    (
        "game value --builtin magic_square --method ns",
        '{\n  "game": "magic_square",\n  "kind": "exact",\n  "method": "ns",\n  "value": 1.0\n}\n',
    ),
    (
        "game value --builtin mse --method classical",
        '{\n  "game": "mse",\n  "kind": "exact",\n  "method": "classical",\n  "value": 0.1111111111111111\n}\n',
    ),
    (
        "game value --builtin magic_square --method seesaw --restarts 20 --seed 7",
        "{\n"
        '  "game": "magic_square",\n'
        '  "kind": "lower_bound",\n'
        '  "local_dims": [\n'
        "    4,\n"
        "    4\n"
        "  ],\n"
        '  "method": "seesaw",\n'
        '  "restarts": 20,\n'
        '  "seed": 7,\n'
        '  "value": 0.9999999990560471\n'
        "}\n",
    ),
]


@pytest.mark.parametrize(
    "command,expected",
    PINNED_GAME_VALUE_OUTPUTS,
    ids=["mse-ns", "chsh-ns", "magic_square-ns", "mse-classical", "magic_square-seesaw"],
)
def test_game_value_outputs_are_pinned(capsys, command, expected):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out == expected


# ---------------------------------------------------------------------------
# the modules a command imports
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# Each README command and the gamebox modules it loads besides the package,
# cli and errors.  bounds, dpt and diqkd import games (and with it qcore) at
# module level.
_GAMES = ("games", "qcore")
_DPT = ("dpt", *_GAMES)
_DIQKD = ("diqkd", *_GAMES)
README_COMMAND_MODULES = {
    "game value --builtin magic_square --method classical": _GAMES,
    "game value --builtin chsh --method seesaw --restarts 20 --seed 7": _GAMES,
    "bounds eff --builtin magic_square --eps 0.1 --variant average --relaxation ns": ("bounds", *_GAMES),
    "bounds gamma2 --matrix chsh_sign.json": ("bounds", *_GAMES),
    "dpt bound case-i --n 1000000 --c 0.0005 --nu 0.3 --l 2": _DPT,
    "dpt probe --builtin chsh --n 2 --comm-bits 1 --seed 0": _DPT,
    "diqkd run --n 2000 --alpha 0.5 --gamma 0.2 --delta 0.05 --runs 1000 --seed 1": _DIQKD,
    "diqkd run --n 200 --boxes test_set --guess 40 --limit-bits 500 --seed 1": _DIQKD,
    "diqkd rate --alpha 0.04 --gamma 0.01 --delta 0.001 --c 0.001 --n 1000000 --nu 0.3 --beta 0.5": ("diqkd",),
    "diqkd serfling --n 100 --gamma 0.2 --eps 0.2 --pattern threshold:59 --trials 100000 --seed 8": ("diqkd",),
}


def _python(code, *args, cwd=None):
    """stdout of ``python -c code *args`` in a fresh process that imports
    gamebox from this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_table_lists_every_readme_command():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert [line.removeprefix("gamebox ") for line in lines if line.startswith("gamebox ")] == list(
        README_COMMAND_MODULES
    )


@pytest.mark.parametrize("command", list(README_COMMAND_MODULES))
def test_readme_command_imports_only_its_modules(tmp_path, command):
    (tmp_path / "chsh_sign.json").write_text("[[1, 1], [1, -1]]")
    code = (
        "import contextlib, io, shlex, sys\nfrom gamebox import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(shlex.split(sys.argv[1])) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('gamebox')))"
    )
    loaded = _python(code, command, cwd=tmp_path).split()
    assert loaded == sorted(["gamebox", *(f"gamebox.{m}" for m in ("cli", "errors", *README_COMMAND_MODULES[command]))])


def test_package_loads_submodules_on_first_use():
    code = """
import json, sys
import gamebox, gamebox.cli
loaded = sorted(m for m in sys.modules if m.startswith("gamebox"))
listed = dir(gamebox)
star = {}
exec("from gamebox import *", star)
try:
    gamebox.nosuch
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "listed": listed, "star": sorted(k for k in star if k != "__builtins__"),
                  "resolved": [getattr(gamebox, name).__name__ for name in gamebox.__all__], "missing": missing}))
"""
    facts = json.loads(_python(code))
    submodules = ["bounds", "diqkd", "dpt", "games", "qcore"]
    assert facts["loaded"] == ["gamebox", "gamebox.cli", "gamebox.errors"]
    assert set(submodules) <= set(facts["listed"])
    assert facts["star"] == sorted(gamebox.__all__)
    assert facts["resolved"] == [f"gamebox.{m}" if m in submodules else m for m in gamebox.__all__]
    assert facts["missing"] == "module 'gamebox' has no attribute 'nosuch'"
