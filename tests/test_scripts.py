"""The experiment scripts, run in-process with their default arguments."""

import runpy
import sys
from pathlib import Path

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
