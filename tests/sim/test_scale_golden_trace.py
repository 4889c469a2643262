"""Golden-trace determinism at the 250-node tier: the 10x25 torus, the
lazy router rows and the epoch caches under the same contract as the
paper mesh, impairments on and off.  The rows are in
:mod:`tests.contracts`.
"""

from tests.contracts import check, observe


class TestScaleTierGoldenTrace:
    def test_same_seed_bit_identical_at_250_nodes(self):
        run, _again = check("torus-250.again")
        assert run.events > 3_000

    def test_run_is_substantial_and_time_ordered(self):
        # over a thousand tasks, with the protocol (not just the arrival
        # process) visibly in the trace
        run = observe("torus-250")
        assert run.result.generated > 1000
        assert {"threshold-cross", "help-sent"} <= {rec.category for rec in run.records}
        times = [rec.time for rec in run.records]
        assert times == sorted(times)

    def test_different_seeds_diverge(self):
        run, other = check("torus-250.other_seed")
        assert run.records != other.records

    def test_impaired_runs_equally_deterministic(self):
        """Loss and jitter draw from seeded streams."""
        lossy, _again = check("torus-250-lossy.again")
        assert lossy.result.extra["impairment_dropped"] > 0

    def test_impairments_actually_change_the_run(self):
        assert observe("torus-250").result != observe("torus-250-lossy").result


class TestScaleTierSweepEquivalence:
    def test_serial_vs_parallel_identical_at_250_nodes(self):
        serial, _parallel = check("torus-250-sweep.parallel")
        assert len(serial.result) == 4
