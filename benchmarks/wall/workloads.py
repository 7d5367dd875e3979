"""The four wall-clock workloads and the output checks that guard them.

Each workload is a closed loop over fixed inputs made from the seed:
the harness calls :meth:`run_pass` again only after the previous pass
returned. Constructing a workload is its set-up (imports, key
generation, kernel cost sampling), which the harness times on its own
as ``setup_s``. Every pass checks what it computed, so a fast path
that changes a result shows up as a failure instead of as a gain.

Repro modules are imported inside the constructors, not at module
level: importing them is part of the set-up time this benchmark
reports, and each workload pays only for the layers it drives.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass, field

from benchmarks.wall.clock import Timed

#: Root of the checkout the benchmark runs in.
ROOT = pathlib.Path(__file__).resolve().parents[2]


@dataclass
class PassResult:
    """What one pass did: checked outputs, timed groups, trace data."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    #: Reference seconds (see :mod:`benchmarks.wall.clock`) and wall
    #: seconds per named group of the pass body.
    groups: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    #: Work the pass completed, e.g. simulated requests.
    work: dict = field(default_factory=dict)
    #: Span records and Chrome documents from traced child processes.
    records: list = field(default_factory=list)
    chrome: list = field(default_factory=list)
    #: Set-up reference seconds per group, when children measured them.
    setup: dict = field(default_factory=dict)

    def check(self, ok: bool, note: str) -> None:
        """Count one checked output; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


@contextlib.contextmanager
def group(result: PassResult, tracer, name: str):
    """Time one group of a pass, in a span of that name when tracing."""
    with Timed() as timed:
        with contextlib.nullcontext() if tracer is None else tracer.span(name):
            yield
    result.groups[name] = timed.reference_s
    result.wall[name] = timed.seconds


def child_env() -> dict:
    """Environment for child interpreters: repo importable, one thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, timeout: float) -> dict:
    """Run ``python -m benchmarks.wall.child ARGS``; return its JSON line.

    Raises :class:`RuntimeError` with the child's stderr when it exits
    non-zero, so the caller can count it as a failed operation.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.wall.child", *map(str, args)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(map(str, args))} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- he_rings ----------------------------------------------------------------


class HeRings:
    """Verified encrypted statistics at the paper's three BFV rings.

    * n = 1024 (27-bit q): integer-encoded sum of 8 users. This level
      has no SIMD slots, so values use the constant coefficient and
      must sum inside t = 257's centered range.
    * n = 2048 (54-bit q): encrypted mean of 6 users and a 2-pair
      vector add. Addition only: fresh budget is about 28 bits and one
      multiply costs about 29.
    * n = 4096 (109-bit q): one multiply with relinearization.

    ``poly`` and ``core`` do almost all the work; ``pim``, ``serve``
    and ``obs`` do none. ``run_functional`` asserts every decrypted
    value against its plaintext reference.
    """

    name = "he_rings"
    in_process = True

    def __init__(self, seed: int):
        from repro.workloads.context import WorkloadContext
        from repro.workloads.mean import MeanWorkload
        from repro.workloads.vectorops import (
            VectorAddWorkload,
            VectorMulWorkload,
        )

        self.ctx = {
            bits: WorkloadContext.create(bits, seed=seed)
            for bits in (27, 54, 109)
        }
        rng = random.Random(seed)
        self.users27 = [rng.randint(-15, 15) for _ in range(8)]
        self.data_seeds = [rng.randrange(2**32) for _ in range(3)]
        self.mean = MeanWorkload(54)
        self.vadd = VectorAddWorkload(54)
        self.vmul = VectorMulWorkload(109)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        mean_seed, add_seed, mul_seed = self.data_seeds
        with group(result, tracer, "he_rings.n1024"):
            ctx = self.ctx[27]
            encoder = ctx.integer_encoder
            total = ctx.evaluator.add_many(
                ctx.encryptor.encrypt(encoder.encode(v)) for v in self.users27
            )
            got = encoder.decode(ctx.decryptor.decrypt(total))
            result.check(got == sum(self.users27), f"n1024 sum {got}")
        with group(result, tracer, "he_rings.n2048"):
            self._functional(
                result, "n2048 mean",
                lambda: self.mean.run_functional(
                    self.ctx[54], n_users=6, seed=mean_seed
                ),
            )
            self._functional(
                result, "n2048 vec_add",
                lambda: self.vadd.run_functional(
                    self.ctx[54], batch=2, seed=add_seed
                ),
            )
        with group(result, tracer, "he_rings.n4096"):
            self._functional(
                result, "n4096 vec_mul",
                lambda: self.vmul.run_functional(
                    self.ctx[109], batch=1, seed=mul_seed
                ),
            )
        return result

    @staticmethod
    def _functional(result: PassResult, label: str, call) -> None:
        try:
            call()
        except AssertionError as exc:
            result.check(False, f"{label}: {exc}")
        else:
            result.check(True, label)


# -- dpu_sim -----------------------------------------------------------------

#: ``SimResult`` (cycles, instructions_issued, dma_busy_cycles) per
#: configuration, recorded from the per-cycle simulator. The simulator
#: is deterministic, so any difference is a changed result.
SIM_PINNED = {
    "vec_mul128.n64.t16": (239100, 237392, 4512.3819114219095),
    "vec_mul32.n128.t4": (142873, 51584, 1640.1909557109557),
    "vec_add128.n1024.t4": (60022, 17536, 27044.58293706294),
    "vec_add128.n1024.t16": (30259, 17536, 27044.58293706292),
    "vec_add64.n512.t4": (20059, 5624, 7377.145734265732),
    "vec_add64.n512.t16": (9411, 5616, 8609.14573426573),
    "reduce_sum128.n1024.t4": (40563, 13264, 9425.527645687645),
    "reduce_sum128.n1024.t16": (19391, 13264, 9425.527645687645),
}


class DpuSim:
    """``simulate_kernel`` in its two regimes, timed separately.

    * compute: multiply kernels whose compute phases hold 13k-15k
      instructions between DMA transfers, where a simulator that
      advances whole round-robin rounds in closed form gains most;
    * dma: add and reduce kernels whose phases hold at most 1.1k
      instructions, where it should gain almost nothing.

    The simulator's only inputs are kernel shapes, so the seed sets the
    order the configurations run in and every seed checks the same
    pinned results.
    """

    name = "dpu_sim"
    in_process = True

    def __init__(self, seed: int):
        from repro.pim.kernels import (
            ReduceSumKernel,
            VecAddKernel,
            VecMulKernel,
        )
        from repro.pim.sim import simulate_kernel
        from repro.poly.modring import find_ntt_prime

        self.simulate_kernel = simulate_kernel
        q109 = find_ntt_prime(109, 4096)
        q54 = find_ntt_prime(54, 2048)
        add128 = VecAddKernel(4, q109)
        add64 = VecAddKernel(2, q54)
        reduce128 = ReduceSumKernel(4, q109)
        self.regimes = {
            "compute": [
                ("vec_mul128.n64.t16", VecMulKernel(4), 64, 16),
                ("vec_mul32.n128.t4", VecMulKernel(1), 128, 4),
            ],
            "dma": [
                (f"{label}.n{n}.t{t}", kernel, n, t)
                for label, kernel, n in (
                    ("vec_add128", add128, 1024),
                    ("vec_add64", add64, 512),
                    ("reduce_sum128", reduce128, 1024),
                )
                for t in (4, 16)
            ],
        }
        rng = random.Random(seed)
        for configs in self.regimes.values():
            rng.shuffle(configs)
            for _, kernel, _, _ in configs:
                kernel.cycles_per_element()  # cached cost sample

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for regime, configs in self.regimes.items():
            instructions = 0
            with group(result, tracer, f"dpu_sim.{regime}"):
                for label, kernel, n, tasklets in configs:
                    sim = self.simulate_kernel(kernel, n, tasklets)
                    got = (
                        sim.cycles,
                        sim.instructions_issued,
                        sim.dma_busy_cycles,
                    )
                    result.check(
                        got == SIM_PINNED[label], f"{label}: {got}"
                    )
                    instructions += sim.instructions_issued
            result.work[f"dpu_sim.{regime}"] = instructions
        return result


# -- serve_knee --------------------------------------------------------------

#: Offered rates straddling the degraded-fleet knee at vec_add@54.
SERVE_QPS = (48000.0, 96000.0, 144000.0, 176000.0)

#: Modelled arrival window per point (the RESILIENCE gate's window).
SERVE_DURATION_S = 0.1

#: (completed, p99_ms, launches, verdict) of the unsharded healthy
#: point and of the 4-shard one-dead-shard point, per (seed, qps).
#: Seed 0 is the default; seed 1 is held out from any tuning.
SERVE_PINNED = {
    (0, 48000.0): (
        (4733, 2.2141523713698876, 74, "SLO-OK"),
        (4733, 3.222500175216263, 195, "SLO-OK"),
    ),
    (0, 96000.0): (
        (9505, 1.402902967602879, 149, "SLO-OK"),
        (9505, 3.5468269599364772, 199, "SLO-OK"),
    ),
    (0, 144000.0): (
        (14256, 34.010855422694824, 223, "SLO-OK"),
        (14256, 3.726462033538399, 227, "SLO-OK"),
    ),
    (0, 176000.0): (
        (17423, 63.08383805820147, 273, "SLO-BREACH"),
        (17423, 58.40882113807136, 424, "SLO-BREACH"),
    ),
    (1, 48000.0): (
        (4907, 2.175507771076104, 77, "SLO-OK"),
        (4907, 2.8078993578069302, 195, "SLO-OK"),
    ),
    (1, 96000.0): (
        (9670, 1.3893383352181086, 152, "SLO-OK"),
        (9670, 3.7786621196732746, 197, "SLO-OK"),
    ),
    (1, 144000.0): (
        (14468, 35.81930990131701, 227, "SLO-OK"),
        (14468, 3.936960152790119, 230, "SLO-OK"),
    ),
    (1, 176000.0): (
        (17721, 65.81318903998309, 277, "SLO-BREACH"),
        (17721, 74.16812980440965, 474, "SLO-BREACH"),
    ),
}


class ServeKnee:
    """Unsharded healthy and 4-shard degraded serving at the QPS knee.

    For ``vec_add`` at 54 bits, each rate runs ``serve.simulate`` on a
    healthy fleet and ``simulate_resilient`` with K = 4 shards, one of
    them dead (``degraded_plan``), and 5 ms hedging. The seed drives
    the arrivals and which shard dies. Pricing is memoized, so
    ``serve`` does the work and ``poly``/``pim.sim`` do none.

    Every point must offer each arrival exactly once (completed plus
    rejected equals the arrival count); pinned seeds must also match
    completed, p99, launches and verdict exactly.
    """

    name = "serve_knee"
    in_process = True

    def __init__(self, seed: int):
        from repro.pim.config import UPMEMConfig
        from repro.serve import (
            OpenLoopArrivals,
            RequestClass,
            ServeSpec,
            resilience,
            service,
        )

        # Called through their modules so a traced pass sees its spans.
        self.service = service
        self.resilience = resilience
        self.seed = seed
        plan, _victim = resilience.degraded_plan(seed, (1, 4), UPMEMConfig())
        self.plan = plan
        self.points = []
        for qps in SERVE_QPS:
            cls = RequestClass(
                workload="vec_add", security_bits=54, rate_qps=qps
            )
            spec = ServeSpec(
                classes=(cls,), duration_s=SERVE_DURATION_S, seed=seed
            )
            offered = len(
                OpenLoopArrivals(cls.key, qps, seed=seed).times_until(
                    SERVE_DURATION_S
                )
            )
            self.points.append((qps, cls.key, spec, offered))

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        requests = 0
        for qps, key, spec, offered in self.points:
            with group(result, tracer, f"serve_knee.qps{qps:g}"):
                plain = self.service.simulate(spec)
                resilient = self.resilience.simulate_resilient(
                    self.resilience.ResilienceSpec(
                        serve=spec,
                        n_shards=4,
                        hedge_after_s=5e-3,
                        plan=self.plan.scaled(),
                    )
                )
            pinned = SERVE_PINNED.get((self.seed, qps))
            for kind, point, expected in zip(
                ("plain", "resilient"),
                (plain, resilient),
                pinned or (None, None),
            ):
                report = point.reports[key]
                got = (
                    report["completed"],
                    report["latency"]["p99_ms"],
                    len(point.launches),
                    point.doc["verdict"],
                )
                ok = report["completed"] + report["rejected"] == offered
                if expected is not None:
                    ok = ok and got == expected
                result.check(ok, f"{kind} qps={qps:g}: {got}")
                requests += report["completed"]
        result.work["requests"] = requests
        return result


# -- gates -------------------------------------------------------------------

#: The gates in one pass; each runs in its own fresh interpreter.
GATES = ("noise", "resil", "model")

#: Seconds a gate child may take before it counts as failed.
GATE_TIMEOUT_S = 150


class Gates:
    """The drift gates a reproducer runs, each capture + check.

    * noise: the noise-growth trajectories at the 27-bit level (the
      54- and 109-bit levels take about 2.5 s and 16 s more);
    * resil: the full recorded RESILIENCE grid;
    * model: the perf gate without its wall band, then the energy gate.

    Each gate runs in a fresh interpreter with its imports left out of
    the timing, through the public ``capture_*``/``check_*`` functions,
    so nothing is appended under ``baselines/``. The gates compare
    against committed baselines, so the seed only sets their order.
    Gate set-up (imports plus reading the baseline) is this workload's
    set-up time.
    """

    name = "gates"
    in_process = False

    def __init__(self, seed: int):
        self.order = list(GATES)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        for gate in self.order:
            try:
                out = run_child(
                    ["gate", gate, int(tracer is not None)], GATE_TIMEOUT_S
                )
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                result.check(False, f"gate {gate}: {exc}")
                continue
            result.attempted += out["attempted"]
            result.failed += out["failed"]
            result.notes.extend(out["notes"])
            result.groups[f"gate.{gate}"] = out["run_ref_s"]
            result.wall[f"gate.{gate}"] = out["run_s"]
            result.setup[f"gate.{gate}"] = out["setup_ref_s"]
            if tracer is not None:
                result.records.append(out["records"])
                result.chrome.append(out["chrome"])
        return result


WORKLOADS = {w.name: w for w in (HeRings, DpuSim, ServeKnee, Gates)}
