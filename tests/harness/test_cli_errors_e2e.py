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
