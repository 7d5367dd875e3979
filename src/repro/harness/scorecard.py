"""Reproduction scorecard: every paper claim, one verdict each.

Aggregates the claim checks that the calibration tests perform into a
single human-readable artifact: for each claim in
:mod:`repro.harness.paper`, run the owning experiment, measure the
ratio range, and classify it with :meth:`PaperClaim.classify`:

* ``in-band``    — measured range inside the paper's reported band;
* ``partial``    — overlaps the paper band (documented edge deviation);
* ``direction``  — right winner, magnitude outside the band (the
  claim's note explains why);
* ``FAIL``       — wrong winner anywhere (must never happen; the test
  suite enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiments import get_experiment
from repro.harness.paper import PAPER_CLAIMS, PaperClaim
from repro.harness.report import measured_ratio_range


@dataclass(frozen=True)
class ClaimVerdict:
    claim: PaperClaim
    measured_lo: float
    measured_hi: float
    verdict: str

    def describe(self) -> str:
        c = self.claim
        return (
            f"[{self.verdict:>9}] {c.experiment}: {c.faster} over "
            f"{c.slower} — paper {c.paper_lo:g}-{c.paper_hi:g}x, model "
            f"{self.measured_lo:.1f}-{self.measured_hi:.1f}x"
        )


def build_scorecard(claims=PAPER_CLAIMS) -> list:
    """Run every claim's experiment and classify the outcome."""
    cache: dict = {}
    verdicts = []
    for claim in claims:
        if claim.experiment not in cache:
            cache[claim.experiment] = get_experiment(claim.experiment).run()
        measured = measured_ratio_range(
            cache[claim.experiment], claim.faster, claim.slower
        )
        if measured is None:
            continue
        lo, hi = measured
        verdicts.append(
            ClaimVerdict(claim, lo, hi, claim.classify(lo, hi))
        )
    return verdicts


def render_scorecard(verdicts=None) -> str:
    """The scorecard as aligned text with a summary footer."""
    if verdicts is None:
        verdicts = build_scorecard()
    lines = ["Reproduction scorecard — paper claims vs this model", ""]
    lines.extend(v.describe() for v in verdicts)
    counts: dict = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    lines.append("")
    lines.append(
        "summary: "
        + ", ".join(
            f"{counts.get(k, 0)} {k}"
            for k in ("in-band", "partial", "direction", "FAIL")
        )
        + f" of {len(verdicts)} claims"
    )
    return "\n".join(lines)
