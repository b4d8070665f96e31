"""The experiment scripts: the partition table and the repetition probe
in-process with their default arguments, the scripts as processes on small
grids and on a library refusal."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from gamebox import dpt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# stdout of scripts/partition_bound_table.py with no arguments
PINNED_PARTITION_TABLE = (
    "game             eps variant         eff_ns  eff_local        gap\n"
    "-----------------------------------------------------------------\n"
    "chsh            0.00 worst_case    1.000000   2.000000   1.000000\n"
    "chsh            0.00 tilde         1.000000   2.000000   1.000000\n"
    "chsh            0.00 average       1.000000   2.000000   1.000000\n"
    "chsh            0.05 worst_case    1.000000   1.800000   0.800000\n"
    "chsh            0.05 tilde         1.000000   1.800000   0.800000\n"
    "chsh            0.05 average       1.000000   1.800000   0.800000\n"
    "chsh            0.10 worst_case    1.000000   1.600000   0.600000\n"
    "chsh            0.10 tilde         1.000000   1.600000   0.600000\n"
    "chsh            0.10 average       1.000000   1.600000   0.600000\n"
    "chsh            0.20 worst_case    1.000000   1.200000   0.200000\n"
    "chsh            0.20 tilde         1.000000   1.200000   0.200000\n"
    "chsh            0.20 average       1.000000   1.200000   0.200000\n"
    "-----------------------------------------------------------------\n"
    "magic_square    0.00 worst_case    1.000000   1.500000   0.500000\n"
    "magic_square    0.00 tilde         1.000000   1.500000   0.500000\n"
    "magic_square    0.00 average       1.000000   1.500000   0.500000\n"
    "magic_square    0.05 worst_case    1.000000   1.275000   0.275000\n"
    "magic_square    0.05 tilde         1.000000   1.275000   0.275000\n"
    "magic_square    0.05 average       1.000000   1.275000   0.275000\n"
    "magic_square    0.10 worst_case    1.000000   1.050000   0.050000\n"
    "magic_square    0.10 tilde         1.000000   1.050000   0.050000\n"
    "magic_square    0.10 average       1.000000   1.050000   0.050000\n"
    "magic_square    0.20 worst_case    1.000000   1.000000   0.000000\n"
    "magic_square    0.20 tilde         1.000000   1.000000   0.000000\n"
    "magic_square    0.20 average       1.000000   1.000000   0.000000\n"
    "-----------------------------------------------------------------\n"
)


def test_partition_bound_table_output_is_pinned(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["partition_bound_table.py"])
    runpy.run_path(str(SCRIPTS / "partition_bound_table.py"), run_name="__main__")
    assert capsys.readouterr().out == PINNED_PARTITION_TABLE


# stdout of scripts/repetition_probe.py with no arguments
PINNED_REPETITION_TABLE = (
    "game             n  comm        value  classical^n kind        \n"
    "chsh             1     0   0.75000000   0.75000000 exhaustive  \n"
    "chsh             1     1   1.00000000   0.75000000 exhaustive  \n"
    "chsh             1     2   1.00000000   0.75000000 exhaustive  \n"
    "chsh             2     0   0.62500000   0.56250000 exhaustive  \n"
    "chsh             2     1   0.75000000   0.56250000 exhaustive  \n"
    "chsh             2     2   1.00000000   0.56250000 lower_bound \n"
    "magic_square     1     0   0.88888889   0.88888889 exhaustive  \n"
    "magic_square     1     1   1.00000000   0.88888889 exhaustive  \n"
    "magic_square     1     2   1.00000000   0.88888889 lower_bound \n"
    "magic_square     2     0   0.80246914   0.79012346 lower_bound \n"
    "magic_square     2     1   0.92592593   0.79012346 lower_bound \n"
    "magic_square     2     2   1.00000000   0.79012346 lower_bound \n"
)

# (game, n, comm_bits) -> (value, kind, certificate) of each probe that the
# default run of scripts/repetition_probe.py makes
PINNED_REPETITION_PROBES = {
    ("chsh", 1, 0): (0.75, "exhaustive", {"kA": 0, "kB": 0, "g_A": [0, 0], "g_B": [0, 0], "f_A": [[0], [0]],
                                          "f_B": [[0], [0]]}),
    ("chsh", 1, 1): (1.0, "exhaustive", {"kA": 1, "kB": 0, "g_A": [0, 1], "g_B": [0, 0], "f_A": [[0], [0]],
                                         "f_B": [[0, 0], [0, 1]]}),
    ("chsh", 1, 2): (1.0, "exhaustive", {"kA": 2, "kB": 0, "g_A": [0, 1], "g_B": [0, 0], "f_A": [[0], [0]],
                                         "f_B": [[0, 0, 0, 0], [0, 1, 0, 0]]}),
    ("chsh", 2, 0): (0.625, "exhaustive", {"kA": 0, "kB": 0, "g_A": [0, 0, 0, 0], "g_B": [0, 0, 0, 0],
                                           "f_A": [[0], [0], [0], [1]], "f_B": [[0], [0], [0], [2]]}),
    ("chsh", 2, 1): (0.75, "exhaustive", {"kA": 1, "kB": 0, "g_A": [0, 0, 0, 1], "g_B": [0, 0, 0, 0],
                                          "f_A": [[0], [0], [0], [0]], "f_B": [[0, 0], [0, 1], [0, 2], [0, 3]]}),
    ("chsh", 2, 2): (1.0, "lower_bound", {"kA": 2, "kB": 0, "g_A": [0, 2, 1, 3], "g_B": [0, 0, 0, 0],
                                          "f_A": [[1], [0], [0], [2]],
                                          "f_B": [[1, 0, 0, 2], [1, 0, 1, 3], [1, 2, 0, 0], [1, 2, 1, 1]]}),
    ("magic_square", 1, 0): (0.8888888888888888, "exhaustive", {"kA": 0, "kB": 0, "g_A": [0, 0, 0],
                                                                "g_B": [0, 0, 0], "f_A": [[0], [0], [1]],
                                                                "f_B": [[0], [0], [0]]}),
    ("magic_square", 1, 1): (1.0, "exhaustive", {"kA": 1, "kB": 0, "g_A": [0, 0, 1], "g_B": [0, 0, 0],
                                                 "f_A": [[0], [0], [0]], "f_B": [[0, 1], [0, 1], [0, 1]]}),
    ("magic_square", 1, 2): (1.0, "lower_bound", {"kA": 2, "kB": 0, "g_A": [0, 0, 1], "g_B": [0, 0, 0],
                                                  "f_A": [[0], [2], [0]],
                                                  "f_B": [[1, 1, 1, 0], [0, 1, 3, 0], [1, 1, 0, 0]]}),
    ("magic_square", 2, 0): (0.8024691358024691, "lower_bound", {
        "kA": 0, "kB": 0, "g_A": [0] * 9, "g_B": [0] * 9,
        "f_A": [[1], [1], [5], [1], [1], [1], [9], [9], [9]], "f_B": [[0], [3], [3], [9], [11], [11], [0], [3], [3]]}),
    ("magic_square", 2, 1): (0.9259259259259258, "lower_bound", {
        "kA": 1, "kB": 0, "g_A": [1, 0, 1, 1, 0, 1, 0, 0, 0], "g_B": [0] * 9,
        "f_A": [[0], [1], [0], [0], [9], [0], [13], [13], [13]],
        "f_B": [[0, 1], [3, 1], [3, 1], [0, 1], [3, 1], [3, 1], [4, 1], [7, 1], [7, 1]]}),
    ("magic_square", 2, 2): (1.0, "lower_bound", {
        "kA": 2, "kB": 0, "g_A": [3, 2, 1, 2, 0, 3, 1, 0, 0], "g_B": [0] * 9,
        "f_A": [[8], [0], [5], [0], [3], [1], [6], [7], [4]],
        "f_B": [[9, 6, 0, 9], [9, 4, 0, 8], [10, 7, 0, 8], [1, 14, 0, 1], [1, 12, 0, 0], [2, 15, 0, 0],
                [1, 14, 0, 9], [1, 12, 0, 8], [2, 15, 0, 8]]}),
}


def test_repetition_probe_output_is_pinned(monkeypatch, capsys):
    probes = {}
    search = dpt.empirical_repeated_value

    def recording(probe):
        done = search(probe)
        probes[done.game.name, done.n, done.comm_bits] = (done.best_value, done.kind, done.certificate)
        return done

    monkeypatch.setattr(dpt, "empirical_repeated_value", recording)
    monkeypatch.setattr(sys, "argv", ["repetition_probe.py"])
    runpy.run_path(str(SCRIPTS / "repetition_probe.py"), run_name="__main__")
    assert capsys.readouterr().out == PINNED_REPETITION_TABLE
    assert probes == PINNED_REPETITION_PROBES


def _run_script(name, *args):
    env = dict(os.environ)
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env)


def test_repetition_probe_prints_one_row_per_case():
    proc = _run_script("repetition_probe.py", "--games", "chsh", "--copies", "1,2", "--comm-bits", "0,1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["game", "n", "comm", "value", "classical^n", "kind"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [("chsh", "1", "0"), ("chsh", "1", "1"), ("chsh", "2", "0"),
                                                  ("chsh", "2", "1")]
    assert [float(r[3]) for r in rows] == [0.75, 1.0, 0.625, 0.75]


@pytest.mark.parametrize(
    "script, args, code, message",
    [
        ("partition_bound_table.py", ("--games", "nope"), 1, "unknown builtin"),
        ("repetition_probe.py", ("--games", "chsh", "--budget", "-1"), 1, "search_budget must lie in"),
        # list flags are parsed by the command's parsers: each raised a bare
        # ValueError
        ("partition_bound_table.py", ("--eps", "abc"), 1, "expected comma-separated finite numbers"),
        ("repetition_probe.py", ("--copies", "1.5"), 1, "--copies must be an integer"),
    ],
)
def test_scripts_exit_with_the_cli_codes_on_a_library_refusal(script, args, code, message):
    # each printed a traceback
    proc = _run_script(script, *args)
    assert proc.returncode == code
    assert proc.stderr.startswith("gamebox: ") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


# size limits, refused with exit 2: the table stopped at mse's eff_ns LP
# and at the 20-fold repeated predicate
_SIZE_REFUSALS = (
    ("partition_bound_table.py", ("--games", "chsh,mse", "--eps", "0")),
    ("repetition_probe.py", ("--games", "chsh", "--copies", "1,20", "--comm-bits", "0")),
)


@pytest.mark.parametrize(
    "script, args",
    [
        ("partition_bound_table.py", ("--games", "nope")),
        ("partition_bound_table.py", ("--games", "chsh,nope")),
        ("partition_bound_table.py", ("--eps", "0.1,1.5")),
        ("repetition_probe.py", ("--games", "nope")),
        ("repetition_probe.py", ("--games", "chsh", "--budget", "-1")),
        ("repetition_probe.py", ("--games", "chsh", "--copies", "0")),
        ("repetition_probe.py", ("--games", "chsh", "--comm-bits", "5")),
        *_SIZE_REFUSALS,
    ],
)
def test_scripts_resolve_every_flag_before_the_header(script, args):
    # a refused run printed the table header (and its rule) before exiting
    proc = _run_script(script, *args)
    assert proc.returncode == (2 if (script, args) in _SIZE_REFUSALS else 1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("gamebox: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script, args",
    [("repetition_probe.py", ("--budget", "abc")), ("partition_bound_table.py", ("--nope",))],
)
def test_scripts_exit_one_on_a_usage_error(script, args):
    # the command's parser: its usage and one error line, exit 1 (argparse's
    # own parser exits 2, the code of a computation refusal)
    proc = _run_script(script, *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: ") and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{script}: error: ")
    assert proc.stdout == ""
