"""Each entry point imports only the layers it runs.

Package ``__init__`` files import no submodules, so importing one layer
does not pull in the others. Each case imports an entry point in a
fresh interpreter and checks ``sys.modules`` against the layers that
entry point must not load. The checks are on module sets, not timings,
so they hold on any machine.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Entry points -> (forbidden module prefixes, allowed exceptions).
CASES = {
    # The DPU simulator and its kernels: the UPMEM model alone.
    "repro.pim.sim, repro.pim.kernels": (
        (
            "repro.core",
            "repro.obs.energy",
            "repro.obs.htmlreport",
            "repro.pim.runtime",
            "repro.pim.faults",
            "subprocess",
        ),
        (),
    ),
    # The host BFV workloads: core and poly, plus the request type
    # (``repro.backends.base.OpRequest``) they describe device work in.
    "repro.workloads.context, repro.workloads.mean, repro.workloads.vectorops": (
        ("repro.backends", "repro.pim", "repro.serve", "repro.harness"),
        ("repro.backends", "repro.backends.base"),
    ),
    # The noise gate: BFV core and the gate ledger, no device model.
    "repro.obs.noisegate": (
        ("repro.pim", "repro.serve", "repro.harness"),
        (),
    ),
    # The CLI module: every layer is imported by the command that runs it.
    "repro.harness.cli": (
        (
            "repro.obs.forensics",
            "repro.obs.profile",
            "repro.serve",
            "repro.pim.sim",
        ),
        (),
    ),
}


def loaded_modules(imports: str) -> list:
    """``sys.modules`` of a fresh interpreter after ``import imports``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_TRACE", None)
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import json, sys\nimport {imports}\n"
            "print(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)


def forbidden_loaded(modules, forbidden, allowed) -> list:
    return [
        name
        for name in modules
        if name not in allowed
        and any(name == f or name.startswith(f + ".") for f in forbidden)
    ]


#: Packages whose ``__init__`` imports nothing: code imports each name
#: from the module that defines it.
EMPTY_PACKAGES = (
    "repro",
    "repro.backends",
    "repro.harness",
    "repro.mpint",
    "repro.obs",
    "repro.pim",
    "repro.poly",
    "repro.workloads",
)


def test_package_inits_import_no_submodules():
    modules = loaded_modules(", ".join(EMPTY_PACKAGES))
    assert [m for m in modules if m.startswith("repro")] == sorted(
        EMPTY_PACKAGES
    )


@pytest.mark.parametrize("imports", sorted(CASES))
def test_entry_point_loads_only_its_layers(imports):
    forbidden, allowed = CASES[imports]
    modules = loaded_modules(imports)
    for name in imports.split(", "):
        assert name in modules
    assert forbidden_loaded(modules, forbidden, allowed) == []


def test_checker_sees_a_forbidden_layer():
    """The check reports a layer an entry point does load."""
    modules = loaded_modules("repro.pim.runtime")
    assert forbidden_loaded(modules, ("repro.pim.faults",), ()) == [
        "repro.pim.faults"
    ]
