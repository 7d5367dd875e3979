"""A library error ends a ``repro`` command with one line, not a traceback.

The command runs in its own interpreter with a stub subcommand that
raises :class:`~repro.errors.ReproError`, so the exit status and stderr
are what a shell sees.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

STUB = """
import argparse
import sys

from repro.errors import ReproError
from repro.harness import cli


def fail(args):
    raise ReproError("stub subcommand failed: nothing to do")


def build_parser():
    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stub").set_defaults(func=fail)
    return parser


cli.build_parser = build_parser
sys.exit(cli.main(["stub"]))
"""


def test_repro_error_exits_1_with_one_stderr_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", STUB],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "ReproError: stub subcommand failed: nothing to do"
    ]
    assert done.stdout == ""


def _run_repro(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_missing_data_names_its_record_hint_once(tmp_path):
    """EXIT_DATA messages print the record-it-first hint a single time."""
    absent = tmp_path / "absent.json"
    for argv, expected in (
        (
            ["grid", "html", "--grid"],
            f"no grid document at {absent}; "
            "record one with 'repro grid run -o <file>'",
        ),
        (
            ["perf", "check", "--baseline"],
            f"no perf baseline at {absent}; record one with 'repro perf record'",
        ),
    ):
        done = _run_repro(*argv, str(absent))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [expected]
