"""Determinism of the benchmark: run with ``python3 -m pytest perfbench``.

Two traced passes with the same seed must give identical counters, and a
different seed may change only the paper-session command list.  Each case
runs one untraced and one traced pass in a fresh worker, about 50 s in all.
"""

import pytest

from run import run_workload
from tracing import LAYER_UNITS, TIME_METRICS
from workloads import WORKLOADS, commands_for

COUNTERS = [name for name in LAYER_UNITS if name not in TIME_METRICS]


def traced_counters(workload: str, seed: int) -> dict:
    _, results = run_workload(workload, seed, passes=2, trace=True)
    traced = [p for p in results["passes"] if p["traced"]]
    assert len(traced) == 1
    return {name: traced[0]["layers"][name] for name in COUNTERS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counters(workload):
    first = traced_counters(workload, seed=11)
    assert first == traced_counters(workload, seed=11)
    assert first["specfun.jv.points"] > 0


def test_seed_changes_only_the_paper_session_commands():
    for workload in WORKLOADS:
        same = commands_for(workload, 11) == commands_for(workload, 12)
        assert same == (workload != "paper-session"), workload
