#!/usr/bin/env python
"""Figure 9 walk-through: the 20-host Agile Objects cluster of Section 6.

The testbed column is REALTOR on ``figures.TESTBED`` — the simulator
with the LAN's accounting: a full mesh of 20 hosts, 50 s queues, an
IP-multicast HELP and a UDP/TCP unicast each charged one message, a
0.2 ms LAN hop.  The simulation column is the Section 5 simulator
scaled to the same 20 hosts.  The paper claims the two curves have "the
same type of shape"; the verdicts below are evaluated on this run.

Run:  python examples/agile_cluster.py
"""

from repro.experiments.figures import TESTBED, run_figure


def main() -> None:
    print(f"testbed: {TESTBED.num_nodes} hosts, {TESTBED.topology} mesh, "
          f"queue {TESTBED.queue_capacity:g} s, flood cost "
          f"{TESTBED.flood_cost_override:g}, unicast cost {TESTBED.fixed_unicast_cost:g}")
    result = run_figure("fig9", horizon=1_500.0)
    print(result.summary())


if __name__ == "__main__":
    main()
