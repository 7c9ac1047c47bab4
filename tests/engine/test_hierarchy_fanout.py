"""A configuration's ``hierarchy_fanout`` governs the hierarchies generated for it.

``hierarchy_fanout`` is a generation knob: it only shapes the hierarchies
the resources build because the caller supplied none.  In a comparison each
configuration gets hierarchies generated at its own fanout, so its result
does not depend on which configurations it is compared with, in which
order, or in which execution mode.  A hierarchy the caller supplied is used
as given, whatever the fanout.
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


def _indicator(dataset, configurations, indicator, mode="sequential"):
    report = MethodComparator(
        dataset, execution=Execution(mode=mode, max_workers=2)
    ).compare(configurations, SWEEP)
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
