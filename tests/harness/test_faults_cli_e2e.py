"""``repro faults run`` end to end: fault telemetry and seeded replay."""

from repro.harness.cli import main


class TestFaultsCLI:
    def test_run_prints_telemetry(self, capsys):
        status = main(
            [
                "faults",
                "run",
                "fig1a",
                "--seed",
                "3",
                "--disable-dpus",
                "36",
            ]
        )
        assert status == 0
        err = capsys.readouterr().err
        assert "fault plan: seed 3" in err
        assert "pim.effective_dpus" in err

    def test_run_is_seeded_and_reproducible(self, capsys):
        argv = ["faults", "run", "fig1a", "--seed", "7", "--disable-dpus", "100"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err
