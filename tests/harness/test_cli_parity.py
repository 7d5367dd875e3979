"""The CLI parser against the layers it stands in for.

``build_parser`` builds every gate's commands from the gate's CLI face
(:class:`repro.obs.gate.GateCli`), so that parsing imports no gate.
These tests check that every command still answers ``--help`` and
rejects a bad option with argparse's exit 2, that each face loads the
gate built on it, and that the two option defaults the faces still
repeat equal the capture functions' defaults.
"""

from __future__ import annotations

import argparse
import inspect

import pytest

from repro.harness.cli import build_parser, main
from repro.obs import baseline as bl
from repro.obs import energy as en
from repro.obs import noisegate as ng
from repro.obs import perf
from repro.obs.gate import (
    ENERGY_CLI,
    GATE_CLIS,
    NOISE_CLI,
    PERF_CLI,
    RESIL_CLI,
)
from repro.serve import resilience as rs


def _choices(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _commands(parser, path=()):
    """Every command path the parser accepts, subcommands included."""
    for name, child in _choices(parser).items():
        yield (*path, name)
        yield from _commands(child, (*path, name))


COMMANDS = sorted(_commands(build_parser()))


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_every_command_answers_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_commands_cover_every_gate():
    for face in GATE_CLIS:
        for command in face.commands:
            assert (face.name, command) in COMMANDS


@pytest.mark.parametrize(
    "argv",
    [
        ["noise", "check", "--levels", "27"],
        ["perf"],
        ["resil", "check", "--seeds"],
        ["no-such-command"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "face, module",
    [(PERF_CLI, perf), (NOISE_CLI, ng), (ENERGY_CLI, en), (RESIL_CLI, rs)],
    ids=lambda value: getattr(value, "name", None),
)
def test_face_loads_its_gate(face, module):
    assert face.load() is module.GATE
    assert module.GATE.cli is face


def _defaults(function) -> dict:
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
    }


def test_gate_option_defaults_match_the_capture_defaults():
    parser = build_parser()
    perf_record = parser.parse_args(["perf", "record"])
    assert perf_record.repeats == _defaults(bl.capture_run)["repeats"]
    noise_record = parser.parse_args(["noise", "record"])
    assert noise_record.seed == _defaults(ng.capture_noise_run)["seed"]
