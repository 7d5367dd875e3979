"""Noise-model calibration: predicted-vs-measured budget baselines.

:mod:`repro.obs.noise` stamps every ciphertext with the analytic
budget prediction; this module checks that the *predictions stay
honest*. A **noise run** records, for each paper security level and
each statistical-workload shape (mean / variance / linear regression),
the full trajectory of (operation, predicted budget, measured budget)
pairs over a small deterministic circuit — every encryption seeded,
every sample drawn from a seeded generator, so the measured invariant
noise is bit-for-bit reproducible.

A committed run is the **calibration baseline**
(``baselines/noise.json``). ``repro noise check`` re-runs the
trajectories and compares:

* **Predictions are exact.** The growth model is closed-form
  arithmetic; any change beyond float ulps means the *estimator*
  changed — reported as ``NOISE-DRIFT``, adopted only deliberately
  with ``--update`` (mirroring the perf gate's ``MODEL-DRIFT``).
* **Measurements are exact modulo seeds.** All sampling is seeded, so
  measured budgets reproduce to well under a bit; a shift beyond
  :data:`MEAS_TOLERANCE_BITS` means the *evaluator or sampler*
  changed the actual noise a ciphertext carries.
* **Predictions must stay conservative.** Within a single run, a
  prediction exceeding its own measurement by more than
  :data:`CONSERVATISM_MARGIN_BITS` means the estimator now promises
  headroom the ciphertext does not have — the one direction that
  turns into silent decryption failures downstream.

Verdict severity: ``NOISE-DRIFT`` > ``new`` > ``ok``; the gate fails
iff anything drifted. Documents are stored by :data:`LEDGER`, the
ledger every gate shares (:mod:`repro.obs.gate`); :data:`GATE` is the
``repro noise`` spec.
"""

from __future__ import annotations

from repro.core.encoder import IntegerEncoder
from repro.core.encryptor import SymmetricEncryptor
from repro.core.evaluator import Evaluator
from repro.core.keys import KeyGenerator
from repro.core.params import SECURITY_LEVELS, BFVParameters
from repro.errors import ParameterError
from repro.obs import gate, htmlreport
from repro.obs.noise import NoiseLedger, use_noise_ledger
from repro.obs.runident import run_identity

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "WORKLOAD_SHAPES",
    "PRED_TOLERANCE_BITS",
    "MEAS_TOLERANCE_BITS",
    "CONSERVATISM_MARGIN_BITS",
    "LEDGER",
    "GATE",
    "capture_noise_run",
    "read_noise_run",
    "check_noise_runs",
]

#: The calibration baseline and run-history format (``repro noise``),
#: the version stamped into every document, and where ``repro noise
#: record`` writes the baseline.
LEDGER = gate.NOISE_CLI.ledger
SCHEMA_VERSION = LEDGER.schema
DEFAULT_BASELINE_PATH = gate.NOISE_CLI.baseline_path

#: The paper's workload shapes, as scripted noise trajectories.
WORKLOAD_SHAPES = ("mean", "variance", "linreg")

#: Predictions are closed-form: allow only libm ulp differences.
PRED_TOLERANCE_BITS = 1e-6

#: Measurements are seeded-deterministic: well under a bit of slack.
MEAS_TOLERANCE_BITS = 0.5

#: A prediction this far above its own measurement is over-promising.
CONSERVATISM_MARGIN_BITS = 3.0


# -- capture ----------------------------------------------------------------


def _workload_steps(name: str, params, keys, seed: int):
    """The scripted trajectory: (op label, ciphertext) per step.

    Small fixed operand values and seeded encryption randomness make
    the measured budgets deterministic. Shapes mirror the paper's
    workloads: mean is a depth-0 balanced addition tree; variance
    squares before summing; linear regression multiplies pairs before
    summing. Every trajectory opens with a fresh-encryption probe.
    """
    encryptor = SymmetricEncryptor(params, keys.secret_key, seed=seed)
    encoder = IntegerEncoder(params)
    evaluator = Evaluator(params, keys.relin_key)

    def fresh(value: int):
        return encryptor.encrypt(encoder.encode(value))

    steps = [("encrypt", fresh(1))]
    if name == "mean":
        users = [fresh(v) for v in (1, 2, 3, 4)]
        left = evaluator.add(users[0], users[1])
        right = evaluator.add(users[2], users[3])
        steps.append(("add", left))
        steps.append(("add", right))
        steps.append(("add", evaluator.add(left, right)))
    elif name == "variance":
        x, y = fresh(2), fresh(3)
        sq_x = evaluator.square(x)
        sq_y = evaluator.square(y)
        steps.append(("square", sq_x))
        steps.append(("square", sq_y))
        steps.append(("add", evaluator.add(sq_x, sq_y)))
    elif name == "linreg":
        x1, y1, x2, y2 = fresh(1), fresh(2), fresh(3), fresh(2)
        p1 = evaluator.multiply(x1, y1)
        p2 = evaluator.multiply(x2, y2)
        steps.append(("multiply", p1))
        steps.append(("multiply", p2))
        steps.append(("add", evaluator.add(p1, p2)))
    else:
        raise ParameterError(
            f"unknown workload shape {name!r}; known: {WORKLOAD_SHAPES}"
        )
    return steps


def _capture_trajectory(name: str, params, keys, seed: int, ledger) -> list:
    trajectory = []
    for op, ciphertext in _workload_steps(name, params, keys, seed):
        stamp = ledger.lookup(ciphertext)
        if stamp is None:
            raise ParameterError(
                f"ledger lost track of a {op} result in workload "
                f"{name!r} — the evaluator hooks are broken"
            )
        measured = ledger.measure(ciphertext, keys.secret_key)
        trajectory.append(
            {
                "op": op,
                "pred_bits": stamp.pred_bits,
                "meas_bits": measured,
                "depth": stamp.depth,
                "key_switches": stamp.key_switches,
            }
        )
    return trajectory


def capture_noise_run(
    levels=None,
    seed: int = 7,
    params_for=None,
    workloads=WORKLOAD_SHAPES,
    progress=None,
) -> dict:
    """Record one calibration run over the paper security levels.

    ``params_for`` maps a security-bits value to a
    :class:`~repro.core.params.BFVParameters`; it defaults to the
    paper presets (``BFVParameters.security_level``) and exists so
    tests can calibrate tiny rings quickly. ``progress`` receives a
    ``"<bits>b/<workload>"`` label as each trajectory starts.
    """
    if params_for is None:
        params_for = BFVParameters.security_level
    selected = list(SECURITY_LEVELS) if levels is None else list(levels)
    doc = {"schema": SCHEMA_VERSION, "seed": seed}
    doc.update(run_identity())
    doc["levels"] = {}
    for bits in selected:
        params = params_for(bits)
        keys = KeyGenerator(params, seed=seed).generate()
        shapes = {}
        for name in workloads:
            if progress is not None:
                progress(f"{bits}b/{name}")
            with use_noise_ledger(NoiseLedger()) as ledger:
                shapes[name] = {
                    "trajectory": _capture_trajectory(
                        name, params, keys, seed, ledger
                    )
                }
        doc["levels"][str(bits)] = {
            "poly_degree": params.poly_degree,
            "plain_modulus": params.plain_modulus,
            "workloads": shapes,
        }
    return doc


# -- persistence ------------------------------------------------------------

#: Read and schema-validate a noise run / calibration baseline.
read_noise_run = LEDGER.read


# -- the gate ---------------------------------------------------------------


def _compare_trajectories(base: list, cur: list) -> list:
    """Drift notes between a baseline and a current trajectory."""
    notes = []
    base_ops = [step["op"] for step in base]
    cur_ops = [step["op"] for step in cur]
    if base_ops != cur_ops:
        notes.append(
            f"op sequence changed: baseline {base_ops} -> current {cur_ops}"
        )
        return notes
    for i, (b, c) in enumerate(zip(base, cur)):
        label = f"step {i} ({b['op']})"
        pred_delta = c["pred_bits"] - b["pred_bits"]
        if abs(pred_delta) > PRED_TOLERANCE_BITS:
            notes.append(
                f"{label}: predicted budget moved {pred_delta:+.6f} bits "
                f"(baseline {b['pred_bits']:.6f} -> "
                f"current {c['pred_bits']:.6f}) — the growth model changed"
            )
        meas_delta = c["meas_bits"] - b["meas_bits"]
        if abs(meas_delta) > MEAS_TOLERANCE_BITS:
            notes.append(
                f"{label}: measured budget moved {meas_delta:+.3f} bits "
                f"(baseline {b['meas_bits']:.3f} -> "
                f"current {c['meas_bits']:.3f}) — the evaluator or "
                "sampler changed the actual noise"
            )
    return notes


def _conservatism_notes(trajectory: list) -> list:
    """Steps where the current prediction over-promises headroom."""
    notes = []
    for i, step in enumerate(trajectory):
        excess = step["pred_bits"] - step["meas_bits"]
        if excess > CONSERVATISM_MARGIN_BITS:
            notes.append(
                f"step {i} ({step['op']}): prediction exceeds measurement "
                f"by {excess:.2f} bits (pred {step['pred_bits']:.2f}, "
                f"meas {step['meas_bits']:.2f}) — the estimator is no "
                "longer conservative"
            )
    return notes


def check_noise_runs(baseline: dict, current: dict) -> list:
    """Compare a current noise run against the calibration baseline.

    One verdict per (level, workload) in the current run, keyed
    ``"<bits>b/<workload>"``. Pairs absent from the baseline are
    ``new`` (adopt with ``--update``); baseline pairs absent from the
    current run are not checked (the caller chose a subset of levels).
    """
    verdicts = []
    for bits, level in current["levels"].items():
        base_level = baseline["levels"].get(bits, {"workloads": {}})
        for name, shape in level["workloads"].items():
            key = f"{bits}b/{name}"
            base_shape = base_level["workloads"].get(name)
            if base_shape is None:
                verdicts.append(
                    GATE.verdict(key, (gate.NEW_NOTE,), gate.VERDICT_NEW)
                )
                continue
            trajectory = shape["trajectory"]
            notes = _compare_trajectories(
                base_shape["trajectory"], trajectory
            )
            notes += _conservatism_notes(trajectory)
            verdicts.append(GATE.verdict(key, notes))
    return verdicts


# -- the gate spec ----------------------------------------------------------


def _recorded(doc: dict) -> str:
    trajectories = sum(
        len(level["workloads"]) for level in doc["levels"].values()
    )
    return (
        f"recorded {trajectories} noise trajectories over "
        f"{len(doc['levels'])} security levels"
    )


GATE = gate.Gate(
    cli=gate.NOISE_CLI,
    title="noise check — current trajectories vs calibration baseline",
    noun="trajectories",
    order=(gate.VERDICT_OK, gate.VERDICT_NEW, gate.NOISE_DRIFT),
    drift_hint=(
        "noise trajectories are seeded-deterministic; drift means "
        "the growth model, evaluator, or sampler changed — "
        "re-baseline deliberately with 'repro noise check --update'"
    ),
    capture=lambda args, progress: capture_noise_run(
        levels=args.levels or None, seed=args.seed, progress=progress
    ),
    capture_for_check=lambda baseline, args, progress: capture_noise_run(
        levels=args.levels or [int(bits) for bits in baseline["levels"]],
        seed=baseline.get("seed", 7),
        progress=progress,
    ),
    check=lambda baseline, current, args: check_noise_runs(baseline, current),
    html=htmlreport.render_noise_report,
    recorded=_recorded,
)
