"""Every row of the determinism contract holds, and the table's coverage
is pinned: a row, cell or mode pair that goes away shows as an edit to
``MATRIX`` below (regenerate it with ``python -m tests.contracts``)."""

import pytest

from tests.contracts import CONTRACTS, check, matrix

MATRIX = """\
cell             again one_by_one sliced profiled obs jsonl parallel other_seed impairments_disabled explicit_defaults live
mesh             =     .          .      .        .   .     .        x          .                    .                 .
mesh-attacked    =     .          .      .        .   .     .        .          .                    .                 .
mesh-sweep       .     .          .      .        .   .     =        .          .                    .                 .
push-1           .     g          g      .        .   .     .        .          .                    .                 .
defaults         .     .          .      .        .   .     .        .          .                    t                 .
churn            =     g          .      .        o   .     .        .          .                    .                 .
churn-grid       .     .          .      .        .   .     =        .          .                    .                 .
chaos-none       =     .          .      .        .   .     .        .          .                    .                 .
chaos-sweep      =     .          .      .        .   .     .        .          .                    .                 .
chaos-region     =     .          .      .        .   .     .        .          .                    .                 .
chaos-random     =     .          .      .        .   .     .        .          .                    .                 .
chaos            .     .          .      .        o   .     .        x          .                    .                 .
chaos-clean      .     .          .      .        .   .     .        .          =                    .                 .
b5               .     .          .      .        .   .     =        .          .                    .                 .
torus-250        =     .          .      .        .   .     .        x          .                    .                 .
torus-250-lossy  =     .          .      .        .   .     .        .          .                    .                 .
torus-250-s11    .     g          .      g        .   .     .        .          .                    .                 .
torus-250-sweep  .     .          .      .        .   .     =        .          .                    .                 .
latency          .     g          g      .        .   .     .        .          .                    .                 .
torus-2500       b     g          .      .        b   b     .        .          .                    .                 .
torus-2500-lossy .     g          .      .        .   .     .        .          .                    .                 .
network          .     g          g      .        .   .     .        .          .                    .                 .
torus-2500-sweep .     .          .      .        .   .     =        .          .                    .                 .
churn-2500       .     g          .      .        .   .     .        .          .                    .                 .
live-underload   .     .          .      .        .   .     .        .          .                    .                 ~
live-overload    .     .          .      .        .   .     .        .          .                    .                 ~

= identical: trace records, result fields and events_executed are equal
g grouped: trace and result are equal; B's events exceed A's by sum(group - 1)
t trace: trace records and events_executed are equal
b bytes: the JSONL streams are equal
o obs: trace and result are equal with the result's series removed
x differs: the two runs are not equal
~ approx: equal generated counts, admission probabilities within TOLERANCE

mesh.again                  run vs again: identical
mesh.other_seed             run vs other_seed: differs
mesh-attacked.again         run vs again: identical
mesh-sweep.parallel         run vs parallel: identical
push-1.one_by_one           run vs one_by_one: grouped
push-1.sliced               sliced(7) vs one_by_one+sliced(7): grouped
defaults.explicit           run vs explicit_defaults: trace
churn.again                 run vs again: identical
churn.one_by_one            run vs one_by_one: grouped
churn.obs                   run vs obs: obs
churn-grid.parallel         run vs parallel: identical
chaos-none.again            run vs again: identical
chaos-sweep.again           run vs again: identical
chaos-region.again          run vs again: identical
chaos-random.again          run vs again: identical
chaos.other_seed            run vs other_seed: differs
chaos.obs                   run vs obs: obs
chaos-clean.disabled        run vs impairments_disabled: identical
b5.parallel                 run vs parallel: identical
torus-250.again             run vs again: identical
torus-250.other_seed        run vs other_seed: differs
torus-250-lossy.again       run vs again: identical
torus-250-s11.profiled      profiled vs one_by_one: grouped
torus-250-sweep.parallel    run vs parallel: identical
latency.one_by_one          run vs one_by_one: grouped
latency.sliced              sliced(97) vs one_by_one+sliced(97): grouped
torus-2500.one_by_one       run vs one_by_one: grouped
torus-2500.jsonl            jsonl vs again+jsonl: bytes
torus-2500.obs              jsonl vs obs+jsonl: bytes
torus-2500-lossy.one_by_one run vs one_by_one: grouped
network.one_by_one          run vs one_by_one: grouped
network.sliced              sliced(997) vs one_by_one+sliced(997): grouped
torus-2500-sweep.parallel   run vs parallel: identical
churn-2500.one_by_one       run vs one_by_one: grouped
live-underload.live         run vs live(200): approx
live-overload.live          run vs live(40): approx
"""


@pytest.mark.parametrize("row", list(CONTRACTS))
def test_row_holds(row):
    check(row)


def test_matrix_is_pinned():
    assert matrix() == MATRIX.rstrip("\n")
