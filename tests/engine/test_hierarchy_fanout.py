"""A configuration's ``hierarchy_fanout`` governs the hierarchies generated for it.

``hierarchy_fanout`` is a generation knob: it only shapes the hierarchies
the resources build because the caller supplied none.  In a comparison each
configuration gets hierarchies generated at its own fanout, so its result
does not depend on which configurations it is compared with, in which
order, or in which execution mode.  A hierarchy the caller supplied is used
as given, whatever the fanout.

The utility policy knobs (``utility_strategy``, ``utility_group_size``) are
generation knobs of the same kind for the algorithms that use policies:
each such configuration is compared under the utility policy it would get
alone.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_adult_like, generate_market_basket
from repro.engine import (
    CheckpointStore,
    Execution,
    ExperimentResources,
    MethodComparator,
    ParameterSweep,
    VaryingParameterExperiment,
    relational_config,
    transaction_config,
)
from repro.hierarchy.builders import build_hierarchies_for_dataset

SWEEP = ParameterSweep("k", (5,))

#: Two COAT configurations that differ only in their utility policy knobs.
UTILITY_CONFIGS = [
    transaction_config("coat", k=20, m=2, utility_strategy="singletons", label="singletons"),
    transaction_config(
        "coat", k=20, m=2, utility_strategy="frequency", utility_group_size=20,
        label="frequency-20",
    ),
]

CASES = [
    pytest.param(
        generate_adult_like(300, seed=3),
        relational_config("top-down", k=5, hierarchy_fanout=2, label="fanout-2"),
        relational_config("top-down", k=5, hierarchy_fanout=4, label="fanout-4"),
        "relational_gcp",
        id="top-down",
    ),
    pytest.param(
        generate_market_basket(400, 40, seed=3),
        transaction_config("apriori", k=5, m=2, hierarchy_fanout=2, label="fanout-2"),
        transaction_config("apriori", k=5, m=2, hierarchy_fanout=4, label="fanout-4"),
        "transaction_ul",
        id="apriori",
    ),
]


def _indicator(dataset, configurations, indicator, mode="sequential", sweep=SWEEP):
    report = MethodComparator(
        dataset, execution=Execution(mode=mode, max_workers=2)
    ).compare(configurations, sweep)
    return {sweep.configuration["label"]: sweep.series[indicator].y for sweep in report.sweeps}


@pytest.mark.parametrize("mode", ["sequential", "process"])
@pytest.mark.parametrize("dataset, narrow, wide, indicator", CASES)
def test_each_configuration_matches_its_standalone_run(
    dataset, narrow, wide, indicator, mode
):
    alone = {
        **_indicator(dataset, [narrow], indicator),
        **_indicator(dataset, [wide], indicator),
    }
    # The probe only shows something if the fanouts give different results.
    assert alone["fanout-2"] != alone["fanout-4"]
    assert _indicator(dataset, [wide, narrow], indicator, mode) == alone
    assert _indicator(dataset, [narrow, wide], indicator, mode) == alone


def test_supplied_hierarchies_are_never_replaced():
    dataset = generate_adult_like(300, seed=3)
    supplied = build_hierarchies_for_dataset(dataset, fanout=4)
    given = dict(supplied)
    resources = ExperimentResources(hierarchies=supplied)
    narrow = relational_config("top-down", k=5, hierarchy_fanout=2, label="fanout-2")
    wide = relational_config("top-down", k=5, hierarchy_fanout=4, label="fanout-4")
    report = MethodComparator(dataset, resources).compare([wide, narrow], SWEEP)
    gcp = [sweep.series["relational_gcp"].y for sweep in report.sweeps]
    assert gcp[0] == gcp[1]
    assert resources.hierarchies == given
    assert all(resources.hierarchies[name] is given[name] for name in given)


def test_per_configuration_sweeps_serve_a_mixed_fanout_comparison(tmp_path):
    """Each fanout's cells are keyed on the resources completed for that
    fanout alone, so sweeps of the single configurations fill every cell."""
    dataset = generate_adult_like(300, seed=3)
    narrow = relational_config("top-down", k=5, hierarchy_fanout=2)
    wide = relational_config("top-down", k=5, hierarchy_fanout=4)
    execution = Execution(checkpoint=CheckpointStore(tmp_path / "cells"))
    for config in (narrow, wide):
        VaryingParameterExperiment(dataset, execution=execution).run(config, SWEEP)
    report = MethodComparator(dataset, execution=execution).compare([wide, narrow], SWEEP)
    assert report.run_report is not None
    assert report.run_report.checkpoint_counts() == {"hit": 2, "miss": 0, "corrupt": 0}


@pytest.mark.parametrize("mode", ["sequential", "process"])
def test_each_utility_policy_matches_its_standalone_run(mode):
    """Behaviour change: the comparator once generated the utility policy for
    the first configuration of a fanout and gave it to the others too."""
    dataset = generate_market_basket(400, 40, seed=3)
    sweep = ParameterSweep("k", (20,))
    singletons, frequency = UTILITY_CONFIGS
    alone = {
        **_indicator(dataset, [singletons], "transaction_ul", sweep=sweep),
        **_indicator(dataset, [frequency], "transaction_ul", sweep=sweep),
    }
    assert alone["singletons"] != alone["frequency-20"]
    for order in ([singletons, frequency], [frequency, singletons]):
        assert _indicator(dataset, order, "transaction_ul", mode, sweep) == alone


def test_per_configuration_sweeps_serve_a_mixed_utility_comparison(tmp_path):
    """Each utility policy group is keyed on the resources completed for it
    alone, so sweeps of the single configurations fill every cell."""
    dataset = generate_market_basket(400, 40, seed=3)
    sweep = ParameterSweep("k", (20,))
    execution = Execution(checkpoint=CheckpointStore(tmp_path / "cells"))
    for config in UTILITY_CONFIGS:
        VaryingParameterExperiment(dataset, execution=execution).run(config, sweep)
    report = MethodComparator(dataset, execution=execution).compare(
        UTILITY_CONFIGS[::-1], sweep
    )
    assert report.run_report.checkpoint_counts() == {"hit": 2, "miss": 0, "corrupt": 0}
