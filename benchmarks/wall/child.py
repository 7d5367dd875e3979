"""Child-process entry points of the wall-clock benchmark.

Set-up time includes imports, so it can only be measured in a fresh
interpreter, and each gate must run in one to time what a user waits
for. The harness starts these one at a time and reads the JSON object
each prints as its last line::

    python -m benchmarks.wall.child setup WORKLOAD SEED
    python -m benchmarks.wall.child gate {noise,resil,model} TRACE
"""

from __future__ import annotations

import json
import sys

from benchmarks.wall.clock import Timed


def setup_sample(workload: str, seed: int) -> dict:
    """Time one construction of ``workload`` in this fresh interpreter."""
    from benchmarks.wall.workloads import WORKLOADS

    with Timed() as timed:
        WORKLOADS[workload](seed)
    return {"setup_s": timed.seconds, "setup_ref_s": timed.reference_s}


def _noise():
    from repro.obs import noisegate as ng

    baseline = ng.read_noise_run(ng.DEFAULT_BASELINE_PATH)

    def run():
        current = ng.capture_noise_run(
            levels=[27], seed=baseline.get("seed", 7)
        )
        return ng.check_noise_runs(baseline, current)

    return run


def _resil():
    from repro.obs import baseline as bl
    from repro.serve import resilience as rs

    baseline = rs.read_resilience_run(rs.DEFAULT_RESIL_BASELINE_PATH)
    perf_baseline = bl.read_run(bl.DEFAULT_BASELINE_PATH)
    config = baseline["config"]

    def run():
        # Re-simulate exactly the recorded grid, as `repro resil check`.
        current = rs.capture_resilience_run(
            workload=baseline["workload"],
            security_bits=baseline["security_bits"],
            seeds=baseline["seeds"],
            shard_counts=baseline["shard_counts"],
            qps_grid=baseline["qps_grid"],
            duration_s=baseline["duration_s"],
            breaker=rs.BreakerSpec(**config["breaker"]),
            retry_budget=config["retry_budget"],
            hedge_after_s=config["hedge_after_s"],
            shed_burn_threshold=config["shed_burn_threshold"],
            baseline=perf_baseline,
        )
        return rs.check_resilience_runs(baseline, current)

    return run


def _model():
    from repro.obs import baseline as bl
    from repro.obs import energy as en
    from repro.obs import perf

    perf_baseline = bl.read_run(bl.DEFAULT_BASELINE_PATH)
    energy_baseline = en.read_energy_run(en.DEFAULT_BASELINE_PATH)

    def run():
        current = bl.capture_run(list(perf_baseline["experiments"]), repeats=1)
        verdicts = perf.check_runs(perf_baseline, current, skip_wall=True)
        current = en.capture_energy_run(
            ids=list(energy_baseline["experiments"])
        )
        return verdicts + en.check_energy_runs(energy_baseline, current)

    return run


GATE_SETUPS = {"noise": _noise, "resil": _resil, "model": _model}


def gate_run(gate: str, trace: bool) -> dict:
    """Set up one gate, then time its capture and check.

    With ``trace`` the public layer functions are wrapped in spans on a
    private tracer for the timed region only; the span records and a
    Chrome document travel back to the harness in the JSON output.
    """
    with Timed() as setup:
        run = GATE_SETUPS[gate]()
    out = {"setup_s": setup.seconds, "setup_ref_s": setup.reference_s}
    if trace:
        from benchmarks.wall.layers import traced

        with traced(f"gate.{gate}") as session:
            with Timed() as timed:
                verdicts = run()
        out["records"] = session.records
        out["chrome"] = session.chrome
    else:
        with Timed() as timed:
            verdicts = run()
    out["run_s"] = timed.seconds
    out["run_ref_s"] = timed.reference_s
    failed = [v for v in verdicts if v.failed]
    out["attempted"] = len(verdicts)
    out["failed"] = len(failed)
    out["notes"] = [f"gate {gate}: {v.describe()}" for v in failed]
    return out


def main(argv) -> int:
    mode, name, arg = argv
    if mode == "setup":
        out = setup_sample(name, int(arg))
    elif mode == "gate":
        out = gate_run(name, bool(int(arg)))
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
