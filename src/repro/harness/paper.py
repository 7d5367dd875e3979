"""The paper's reported speedup bands, as checkable claims.

Each :class:`PaperClaim` records a ratio the paper reports (Sections 1,
4.2, 4.3) between two platforms on one experiment, together with the
band the *model* is asserted to reproduce. Where the model band differs
from the paper band, the ``note`` explains why (the deviations are
analysed in EXPERIMENTS.md) — the asserted band is never silently
widened.

Ratio convention: ``ratio = time(slower) / time(faster)`` with
``faster``/``slower`` naming backends, so every claim reads
"<faster> is between lo and hi times faster than <slower>".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperClaim:
    """One reported speedup band and the band the model must satisfy."""

    experiment: str
    faster: str
    slower: str
    paper_lo: float
    paper_hi: float
    model_lo: float
    model_hi: float
    source: str
    note: str = ""

    def describe(self) -> str:
        return (
            f"{self.experiment}: {self.faster} over {self.slower} "
            f"{self.paper_lo:g}-{self.paper_hi:g}x (paper, {self.source})"
        )

    def classify(self, lo: float, hi: float) -> str:
        """Verdict for a measured ratio range ``[lo, hi]``.

        ``FAIL`` if the wrong backend wins anywhere; ``in-band`` inside
        the paper band; ``partial`` if it overlaps the band; otherwise
        ``direction`` (right winner, magnitude outside the band).
        """
        if lo <= 1.0:
            return "FAIL"
        if self.paper_lo <= lo and hi <= self.paper_hi:
            return "in-band"
        if hi >= self.paper_lo and lo <= self.paper_hi:
            return "partial"
        return "direction"


PAPER_CLAIMS = (
    # ---- Figure 1(a): ciphertext vector addition, 128-bit ----------------
    PaperClaim(
        "fig1a", "pim", "cpu", 20, 150, 20, 150,
        "Section 4.2: 'outperforms CPU ... by 20-150x'",
    ),
    PaperClaim(
        "fig1a", "pim", "cpu-seal", 35, 80, 35, 80,
        "Section 4.2: 'outperforms ... CPU-SEAL ... by 35-80x'",
    ),
    PaperClaim(
        "fig1a", "pim", "gpu", 15, 50, 15, 50,
        "Section 4.2: 'outperforms ... GPU by ... 15-50x'",
    ),
    # ---- Figure 1(b): ciphertext vector multiplication, 128-bit ----------
    PaperClaim(
        "fig1b", "pim", "cpu", 40, 50, 30, 50,
        "Section 4.2: 'outperforms CPU by 40-50x'",
        note=(
            "At the smallest batch (5,120 ciphertexts) the PIM launch "
            "overhead lowers the modelled ratio to ~32x; the paper band "
            "holds from ~20k ciphertexts up."
        ),
    ),
    PaperClaim(
        "fig1b", "gpu", "pim", 12, 15, 12, 19,
        "Section 4.2: 'PIM ... is 12-15x slower than GPU'",
        note=(
            "The modelled ratio reaches ~19x at the smallest batch "
            "where GPU launch overhead amortizes better than PIM's."
        ),
    ),
    PaperClaim(
        "fig1b", "cpu-seal", "pim", 2, 4, 1.8, 4,
        "Section 4.2: 'PIM ... 2-4x slower than CPU-SEAL for 64 and "
        "128 bits'",
        note=(
            "Model floor is SEAL's memory roofline; the largest batch "
            "lands at 1.9x, within 6% of the paper's lower edge."
        ),
    ),
    PaperClaim(
        "fig1b_32bit", "pim", "cpu-seal", 2, 2, 1.5, 2.6,
        "Section 4.2: 'PIM ... outperforms ... CPU-SEAL for 32 bits "
        "by 2x'",
        note="Single paper value 2x; model spans 1.6-2.4x over batches.",
    ),
    # ---- Figure 2(a): arithmetic mean -------------------------------------
    PaperClaim(
        "fig2a", "pim", "cpu", 25, 100, 25, 100,
        "Section 4.3: 'PIM speedups of 25-100x over CPU'",
    ),
    PaperClaim(
        "fig2a", "pim", "cpu-seal", 11, 50, 10, 50,
        "Section 4.3: '11-50x over CPU-SEAL'",
        note="Smallest user count lands at 10.3x, within 7% of band.",
    ),
    PaperClaim(
        "fig2a", "pim", "gpu", 9, 34, 8, 34,
        "Section 4.3: '9-34x over GPU'",
        note="Smallest user count lands at 8.3x, within 8% of band.",
    ),
    # ---- Figure 2(b): variance --------------------------------------------
    PaperClaim(
        "fig2b", "pim", "cpu", 6, 25, 6, 25,
        "Section 4.3: 'PIM outperforms only the custom CPU "
        "implementation (by 6-25x)'",
    ),
    PaperClaim(
        "fig2b", "cpu-seal", "pim", 2, 10, 2, 10,
        "Section 4.3: 'CPU-SEAL ... 2-10x ... faster than PIM'",
    ),
    PaperClaim(
        "fig2b", "gpu", "pim", 13, 50, 9, 50,
        "Section 4.3: 'GPU ... 13-50x faster than PIM'",
        note=(
            "The model's GPU loses more time to per-user dispatches at "
            "the larger user counts than the paper's measurement; the "
            "ratio bottoms at ~9x instead of 13x. Direction and order "
            "of magnitude hold; see EXPERIMENTS.md."
        ),
    ),
    # ---- Figure 2(c): linear regression -----------------------------------
    PaperClaim(
        "fig2c", "pim", "cpu", 7.5, 7.5, 6, 16,
        "Section 4.3: 'PIM is only faster than the custom CPU "
        "implementation (by 7.5x) for 32 ciphertexts'",
        note=(
            "Single paper value; the model gives ~12x (same direction, "
            "factor 1.6). The gap tracks the fig2b deviation."
        ),
    ),
    PaperClaim(
        "fig2c", "cpu-seal", "pim", 11.4, 11.4, 4, 12,
        "Section 4.3: 'CPU-SEAL ... 11.4x faster than PIM for 64 "
        "ciphertexts'",
        note="Model gives ~5.7x: same direction, factor 2.",
    ),
    PaperClaim(
        "fig2c", "gpu", "pim", 54.9, 54.9, 18, 60,
        "Section 4.3: 'GPU ... 54.9x faster than PIM for 64 "
        "ciphertexts'",
        note="Model gives ~24x: same direction, factor 2.3.",
    ),
)


def claims_for(experiment: str) -> tuple:
    """All claims recorded against one experiment id."""
    return tuple(c for c in PAPER_CLAIMS if c.experiment == experiment)
