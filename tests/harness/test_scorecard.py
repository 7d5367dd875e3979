"""Reproduction scorecard: classification logic and overall health."""

import pytest

from repro.harness.paper import PAPER_CLAIMS, PaperClaim
from repro.harness.scorecard import build_scorecard, render_scorecard


def claim(lo=2.0, hi=4.0):
    return PaperClaim("figX", "pim", "cpu", lo, hi, lo, hi, "test")


class TestClassification:
    def test_in_band(self):
        assert claim(2, 4).classify(2.5, 3.5) == "in-band"

    def test_partial_overlap(self):
        assert claim(2, 4).classify(1.5, 3.0) == "partial"
        assert claim(2, 4).classify(3.0, 6.0) == "partial"

    def test_direction_only(self):
        assert claim(10, 20).classify(2.0, 5.0) == "direction"

    def test_fail_on_wrong_winner(self):
        assert claim(2, 4).classify(0.8, 3.0) == "FAIL"

    def test_exact_band_edges_in_band(self):
        assert claim(2, 4).classify(2.0, 4.0) == "in-band"


class TestClassificationBoundaries:
    """Edges of the verdict lattice: FAIL / partial / direction borders."""

    def test_ratio_exactly_one_is_fail(self):
        # "No faster at all" is a wrong-winner claim, not a tie.
        assert claim(2, 4).classify(1.0, 3.0) == "FAIL"

    def test_ratio_just_above_one_is_not_fail(self):
        assert claim(2, 4).classify(1.0 + 1e-9, 3.0) == "partial"

    def test_fail_dominates_even_when_hi_is_in_band(self):
        assert claim(2, 4).classify(0.5, 4.0) == "FAIL"

    def test_hi_touching_paper_lo_is_partial(self):
        # Overlap boundary: measured hi == paper lo counts as overlap.
        assert claim(2, 4).classify(1.5, 2.0) == "partial"

    def test_hi_just_below_paper_lo_is_direction(self):
        assert claim(2, 4).classify(1.5, 2.0 - 1e-9) == "direction"

    def test_lo_touching_paper_hi_is_partial(self):
        assert claim(2, 4).classify(4.0, 6.0) == "partial"

    def test_lo_just_above_paper_hi_is_direction(self):
        assert claim(2, 4).classify(4.0 + 1e-9, 6.0) == "direction"

    def test_degenerate_point_band(self):
        assert claim(3, 3).classify(3.0, 3.0) == "in-band"
        assert claim(3, 3).classify(2.9, 3.1) == "partial"

    def test_wider_than_band_is_partial_not_in_band(self):
        # Measured range containing the whole paper band overlaps it.
        assert claim(2, 4).classify(1.5, 6.0) == "partial"


class TestWrongWinnerThroughScorecard:
    def test_inverted_claim_yields_fail(self):
        """A claim naming the wrong winner must come back FAIL."""
        # fig1a's real winner is pim; claim the opposite direction.
        inverted = PaperClaim(
            "fig1a", "cpu", "pim", 2.0, 4.0, 2.0, 4.0, "synthetic"
        )
        (verdict,) = build_scorecard([inverted])
        assert verdict.verdict == "FAIL"
        assert verdict.measured_hi < 1.0

    def test_fail_renders_in_scorecard_text(self):
        inverted = PaperClaim(
            "fig1a", "cpu", "pim", 2.0, 4.0, 2.0, 4.0, "synthetic"
        )
        text = render_scorecard(build_scorecard([inverted]))
        assert "1 FAIL" in text
        assert "[     FAIL]" in text


class TestFullScorecard:
    @pytest.fixture(scope="class")
    def verdicts(self):
        return build_scorecard()

    def test_every_claim_scored(self, verdicts):
        assert len(verdicts) == len(PAPER_CLAIMS)

    def test_no_failures(self, verdicts):
        """The reproduction's hard invariant: every winner the paper
        reports wins in the model."""
        assert all(v.verdict != "FAIL" for v in verdicts)

    def test_majority_in_or_near_band(self, verdicts):
        strong = sum(1 for v in verdicts if v.verdict in ("in-band", "partial"))
        assert strong >= 12  # 13 of 16 at the time of writing

    def test_direction_only_claims_documented(self, verdicts):
        """Any claim outside the paper band must carry a note."""
        for v in verdicts:
            if v.verdict == "direction":
                assert v.claim.note, v.claim.describe()

    def test_render(self, verdicts):
        text = render_scorecard(verdicts)
        assert "summary:" in text
        assert "0 FAIL" in text
        assert text.count("\n") >= len(verdicts)

    def test_cli_command(self, capsys):
        from repro.harness.cli import main

        assert main(["scorecard"]) == 0
        assert "Reproduction scorecard" in capsys.readouterr().out
