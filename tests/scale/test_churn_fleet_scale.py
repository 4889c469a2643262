"""A 2 500-node torus with a heterogeneous fleet and live join/leave
churn: grouped delivery must equal one event per delivery (the
``churn-2500`` row of :mod:`tests.contracts`), and fleet draws are keyed
by node.
"""

from repro.experiments.runner import build_system
from tests.contracts import CELLS, check


class TestHeterogeneousChurnAt2500:
    def test_scalar_and_batched_loops_identical(self):
        grouped, _reference = check("churn-2500.one_by_one")
        # both axes and grouped delivery run: the check is not vacuous
        extra = grouped.result.extra
        assert extra["churn_scheduled"] > 0
        assert extra["fleet_speed_cv"] > 0.0
        assert grouped.result.messages_by_kind
        assert max(grouped.groups) > 1

    def test_fleet_materialisation_is_node_keyed(self):
        """Fleet draws come from per-node substreams: the same node gets
        the same parameters in two independent builds."""
        cfg = CELLS["churn-2500"]
        a = build_system(cfg).fleet_params
        b = build_system(cfg).fleet_params
        assert a == b
        assert len(a) >= cfg.nodes
