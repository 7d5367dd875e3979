"""ISA cost table."""

from repro.mpint.cost import KNOWN_OPS, OpTally
from repro.pim.isa import DEFAULT_CYCLES_PER_OP, cycles_for_tally


class TestDefaultTable:
    def test_covers_all_ops(self):
        assert set(DEFAULT_CYCLES_PER_OP) == set(KNOWN_OPS)

    def test_single_issue_everything_one_cycle(self):
        """The DPU is single-issue in-order: every instruction is one
        dispatch slot."""
        assert all(v == 1.0 for v in DEFAULT_CYCLES_PER_OP.values())

    def test_cycles_for_tally_equals_total(self):
        t = OpTally()
        t.charge("add", 5)
        t.charge("lsl", 3)
        assert cycles_for_tally(t) == 8.0

    def test_custom_table(self):
        t = OpTally()
        t.charge("mul8", 2)
        t.charge("add", 1)
        assert cycles_for_tally(t, {"mul8": 3.0}) == 7.0
