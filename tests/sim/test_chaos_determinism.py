"""Determinism under chaos: attacks composed with impairments, which add
a draw stream of their own (loss, jitter, duplication, reordering
verdicts).  A disabled impairment config must equal none at all, and the
loss sweep (study B5) must equal itself through the process pool.  The
rows are in :mod:`tests.contracts`.
"""

import pytest

from tests.contracts import check, observe


class TestImpairedAttackDeterminism:
    @pytest.mark.parametrize("attack", ["none", "sweep", "region", "random"])
    def test_bit_identical_per_attack_type(self, attack):
        run, _again = check(f"chaos-{attack}.again")
        assert run.result.extra["impairment_deliveries"] > 0

    def test_different_seeds_diverge(self):
        run, other = check("chaos.other_seed")
        assert run.records != other.records

    def test_impairments_actually_fired(self):
        run = observe("chaos")
        assert run.facts["impairments_installed"]
        assert run.result.extra["impairment_deliveries"] > 0
        assert run.result.extra["impairment_dropped"] > 0


class TestDisabledImpairmentsIdentity:
    def test_disabled_config_equals_no_config(self):
        _none, disabled = check("chaos-clean.disabled")
        assert not disabled.facts["impairments_installed"]
        assert "impairment_deliveries" not in disabled.result.extra


class TestChaosSweepEquivalence:
    def test_loss_sweep_serial_vs_parallel(self):
        serial, _parallel = check("b5.parallel")
        assert [key for key, _ in serial.result] == [(0.0,), (0.05,), (0.15,)]
