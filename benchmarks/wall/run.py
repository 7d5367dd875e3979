"""Wall-clock benchmark of this Python system, end to end and per layer.

Every number is host wall-clock time of this program; modelled UPMEM
seconds are locked exactly by the perf and energy gates and are never a
metric here. Run from the root of a checkout::

    python3 benchmarks/wall/run.py --workload he_rings --seed 0 \\
        --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.wall            # all workloads

One workload runs per process, single-threaded. A pass is split into
groups (a ring, a simulator regime, a serving rate, a gate); the process
repeats the pass for ``--seconds`` (at least ``--runs`` times) and
reports ``wall_s`` as the sum over groups of each group's median time.
``setup_s`` is the median of one in-process and two fresh-interpreter
set-ups spread over the run. Both are in reference seconds: wall time
corrected for the host's speed at that moment (see ``clock.py``).

``--trace`` adds one pass with spans around each layer's public
functions and reports the per-layer metrics instead. The last line of
standard output is one JSON object; the full result, with both metric
sets and every sample, goes to ``<out>/<workload>.result.json``. See
README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
DEFAULT_SECONDS = 20.0
DEFAULT_RUNS = 3

#: Set-up samples per run, one in-process and the rest in children.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900

#: End-to-end metric name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

WORKLOAD_NAMES = ("he_rings", "dpu_sim", "serve_knee", "gates")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks.wall", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload",
        choices=WORKLOAD_NAMES,
        help="one workload in this process (default: each in turn, "
        "each in its own interpreter)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help=f"measuring window per workload (default {DEFAULT_SECONDS:g})",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help=f"minimum timed passes (default {DEFAULT_RUNS})",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced pass and report per-layer metrics",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help="directory for results and traces (default: benchmarks/wall/out)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help=f"append the run to {HISTORY.relative_to(ROOT)} (implies --trace)",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.record:
        args.trace = 1
    return args


def _medians(dicts) -> dict:
    """Per-key median over the dicts that have the key."""
    dicts = list(dicts)
    keys = {key for d in dicts for key in d}
    return {
        key: statistics.median([d[key] for d in dicts if key in d])
        for key in sorted(keys)
    }


def measure(name: str, seed: int, seconds: float, min_runs: int, trace: bool):
    """Set up, time, and optionally trace one workload."""
    from benchmarks.wall.clock import Timed
    from benchmarks.wall.workloads import WORKLOADS, run_child

    def setup_sample():
        return run_child(["setup", name, seed], CHILD_TIMEOUT_S)

    with Timed() as timed:
        workload = WORKLOADS[name](seed)
    setup = [{"setup_s": timed.seconds, "setup_ref_s": timed.reference_s}]

    passes = []
    window = time.perf_counter()
    while len(passes) < min_runs or time.perf_counter() - window < seconds:
        passes.append(workload.run_pass())
        # Spread the set-up samples over the run, like the passes.
        elapsed = time.perf_counter() - window
        if workload.in_process and len(setup) < 2 and elapsed >= seconds / 2:
            setup.append(setup_sample())
    # Gates run in child interpreters; RUSAGE_CHILDREN is the largest.
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if workload.in_process:
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        setup_s = statistics.median(s["setup_ref_s"] for s in setup)
    else:
        setup_s = sum(_medians(p.setup for p in passes).values())

    groups = _medians(p.groups for p in passes)
    wall_s = sum(groups.values())
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "passes": len(passes),
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "per_layer": None,
        "groups": groups,
        "samples": {
            "setup": setup if workload.in_process else [p.setup for p in passes],
            "reference_s": [p.groups for p in passes],
            "wall_s": [p.wall for p in passes],
        },
    }
    everything = list(passes)
    if trace:
        per_layer, chrome, traced = trace_pass(workload, name)
        everything.append(traced)
        per_layer.update(workload_metrics(passes[0].work, groups))
        per_layer["trace.overhead_frac"] = (
            sum(traced.groups.values()) / wall_s - 1
        )
        result["per_layer"] = per_layer
        result["chrome"] = chrome
    result["attempted"] = sum(p.attempted for p in everything)
    result["failed"] = sum(p.failed for p in everything)
    result["notes"] = [n for p in everything for n in p.notes][:20]
    return result


def trace_pass(workload, name: str):
    """One traced pass: per-layer metrics, Chrome document, PassResult."""
    from repro.obs.export import merge_chrome_traces

    from benchmarks.wall.layers import merge_records, span_metrics, traced

    with traced(f"workload.{name}") as session:
        result = workload.run_pass(session.tracer)
    if result.records:
        # Spans were recorded in the gate children, one tracer each.
        records = merge_records(result.records)
        chrome = merge_chrome_traces(result.chrome)
    else:
        records = session.records
        chrome = session.chrome
    return span_metrics(records), chrome, result


def workload_metrics(work: dict, groups: dict) -> dict:
    """Simulator and serving rates and gate times from the timed passes.

    Zero on the workloads that do not drive the layer.
    """

    def rate(key, seconds):
        return work[key] / seconds if key in work and seconds else 0.0

    return {
        "sim_compute_minstr_per_s": rate(
            "dpu_sim.compute", groups.get("dpu_sim.compute")
        )
        / 1e6,
        "sim_dma_minstr_per_s": rate("dpu_sim.dma", groups.get("dpu_sim.dma"))
        / 1e6,
        "serve_kreq_per_s": rate("requests", sum(groups.values())) / 1e3,
        **{
            f"gate_{gate}_s": groups.get(f"gate.{gate}", 0.0)
            for gate in ("noise", "resil", "model")
        },
    }


def _with_units(values: dict, specs: dict) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in specs.items()
    }


def print_metrics(result: dict) -> None:
    from benchmarks.wall.layers import PER_LAYER

    print(
        f"{result['workload']}: {result['passes']} timed passes, "
        f"seed {result['seed']}, {result['attempted']} checked outputs, "
        f"{result['failed']} failed"
    )
    for note in result["notes"]:
        print(f"  FAILED {note}")
    for specs, values in (
        (END_TO_END, result["end_to_end"]),
        (PER_LAYER, result["per_layer"] or {}),
    ):
        for name in values:
            print(f"  {name:<40} {values[name]:>14.6g} {specs[name][0]}")


def record(results) -> None:
    """Append one run-identity-stamped record to the committed history."""
    from repro.obs.runident import run_identity

    entry = run_identity()
    entry["workloads"] = {
        r["workload"]: {
            key: r[key]
            for key in (
                "seed",
                "seconds",
                "passes",
                "attempted",
                "failed",
                "end_to_end",
                "per_layer",
            )
        }
        for r in results
    }
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded run {entry['run_id'][:12]} in {HISTORY.relative_to(ROOT)}")


def run_one(args) -> int:
    from benchmarks.wall.layers import PER_LAYER

    result = measure(
        args.workload, args.seed, args.seconds, args.runs, bool(args.trace)
    )
    args.out.mkdir(parents=True, exist_ok=True)
    chrome = result.pop("chrome", None)
    if chrome is not None:
        (args.out / f"{args.workload}.trace.json").write_text(json.dumps(chrome))
    (args.out / f"{args.workload}.result.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print_metrics(result)
    if args.record:
        record([result])
    if args.trace:
        metrics = _with_units(result["per_layer"], PER_LAYER)
    else:
        metrics = _with_units(result["end_to_end"], END_TO_END)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    from benchmarks.wall.workloads import child_env

    status = 0
    results = []
    for name in WORKLOAD_NAMES:
        result_path = args.out / f"{name}.result.json"
        result_path.unlink(missing_ok=True)
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--runs", str(args.runs),
                "--trace", str(args.trace),
                "--out", str(args.out),
            ],
            cwd=ROOT,
            env=child_env(),
            timeout=WORKLOAD_TIMEOUT_S,
        )
        status = status or proc.returncode
        if result_path.exists():
            results.append(json.loads(result_path.read_text()))
    print("\nworkload     " + "".join(f"{m:>14}" for m in END_TO_END))
    for result in results:
        values = result["end_to_end"]
        print(
            f"{result['workload']:<12} "
            + "".join(f"{values[m]:>14.4g}" for m in END_TO_END)
        )
    if args.record and status == 0:
        record(results)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no repro sources under {ROOT / 'src'}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    if sys.flags.optimize:
        print("output checks use assert; run without -O", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The program stamps documents with `git rev-parse`; keep that lookup
    # inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # The build step: byte-compile once so no run times the compiler.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
