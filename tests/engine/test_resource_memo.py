"""Resources resolve through one keyed memo: each configuration reads its own.

:meth:`ExperimentResources.for_config` returns the resources exactly as a
configuration reads them.  What the caller supplied is used as given; every
generated artefact comes from a memo keyed by its generator's arguments.  So
completing resources for one configuration after another never leaves the
first one's artefacts behind, runs never change the caller's fields, and a
configuration's checkpoint keys do not depend on its companions.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro import Session
from repro.datasets import generate_market_basket
from repro.engine import (
    CheckpointStore,
    ExperimentResources,
    transaction_config,
)
from repro.engine import resources as resources_module
from repro.engine.checkpoint import stable_digest


@pytest.fixture(scope="module")
def basket():
    return generate_market_basket(400, 40, seed=3)


#: (configuration prepared for, configuration then completed for, a count
#: read off resources, that count on resources prepared for the second alone).
STALE_COMPLETIONS = [
    pytest.param(
        transaction_config("coat", k=10, privacy_strategy="items"),
        transaction_config("coat", k=10, privacy_strategy="rare"),
        lambda resources: len(resources.privacy_policy),
        10,
        id="privacy-strategy",
    ),
    pytest.param(
        transaction_config("coat", k=10),
        transaction_config(
            "coat", k=10, utility_strategy="frequency", utility_group_size=20
        ),
        lambda resources: len(resources.utility_policy),
        2,
        id="utility-knobs",
    ),
    pytest.param(
        transaction_config("apriori", k=10, hierarchy_fanout=2),
        transaction_config("apriori", k=10, hierarchy_fanout=4),
        lambda resources: len(resources.item_hierarchy.root.children),
        4,
        id="item-hierarchy-fanout",
    ),
]


@pytest.mark.parametrize("first, second, count, fresh_count", STALE_COMPLETIONS)
def test_completion_drops_the_artefacts_of_the_previous_configuration(
    basket, first, second, count, fresh_count
):
    """Regression: ``ensure_for`` once kept the policies and the item
    hierarchy generated for the previous configuration's knobs."""
    resources = ExperimentResources.prepare(basket, first)
    before = count(resources)
    resources.ensure_for(basket, second)
    fresh = ExperimentResources.prepare(basket, second)
    assert count(fresh) == fresh_count != before
    assert count(resources) == fresh_count
    assert stable_digest(resources) == stable_digest(fresh)


def test_each_artefact_is_generated_once_per_generator_arguments(basket, monkeypatch):
    calls = []
    original = resources_module.generate_privacy_policy

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return original(*args, **kwargs)

    monkeypatch.setattr(resources_module, "generate_privacy_policy", counting)
    resources = ExperimentResources()
    coat = transaction_config("coat", k=10)
    first = resources.for_config(basket, coat)
    again = resources.for_config(basket, transaction_config("pcta", k=10))
    other_k = resources.for_config(basket, coat.with_parameter("k", 20))
    assert calls == [10, 20]
    assert again.privacy_policy is first.privacy_policy
    assert again.item_hierarchy is first.item_hierarchy
    assert other_k.privacy_policy.k == 20
    assert other_k.utility_policy is first.utility_policy


def test_resolution_leaves_out_generated_artefacts_the_configuration_does_not_read(basket):
    resources = ExperimentResources.prepare(basket, transaction_config("coat", k=10))
    apriori = resources.for_config(basket, transaction_config("apriori", k=10))
    assert apriori.privacy_policy is None
    assert apriori.utility_policy is None
    assert apriori.item_hierarchy is resources.item_hierarchy


def test_supplied_artefacts_are_used_as_given(basket):
    supplied = ExperimentResources.prepare(basket, transaction_config("coat", k=10))
    given = ExperimentResources(**{
        field.name: getattr(supplied, field.name)
        for field in dataclasses.fields(supplied)
    })
    resolved = given.for_config(
        basket,
        transaction_config(
            "coat", k=10, hierarchy_fanout=2, privacy_strategy="rare", utility_group_size=20
        ),
    )
    assert resolved.hierarchies == given.hierarchies
    for field in dataclasses.fields(given)[1:]:
        assert getattr(resolved, field.name) is getattr(given, field.name)
    # A supplied privacy policy holds for its own k only.
    other_k = given.for_config(basket, transaction_config("coat", k=20))
    assert other_k.privacy_policy.k == 20
    assert given.privacy_policy.k == 10


def test_the_memo_stays_in_this_process(basket):
    resources = ExperimentResources.prepare(basket, transaction_config("coat", k=10))
    assert "_memo" in vars(resources)
    shipped = pickle.loads(pickle.dumps(resources))
    assert "_memo" not in vars(shipped)
    assert stable_digest(shipped) == stable_digest(resources)


def test_runs_leave_the_callers_fields_unchanged(basket):
    session = Session(basket)
    session.verify_privacy = False
    configs = [transaction_config(name, k=5, m=2) for name in ("apriori", "coat")]
    for resources in (
        ExperimentResources(),
        ExperimentResources.prepare(basket, transaction_config("pcta", k=15)),
    ):
        before = {
            field.name: getattr(resources, field.name)
            for field in dataclasses.fields(resources)
        }
        hierarchies = dict(resources.hierarchies)
        session.compare(configs, "k", 5, 10, 5, resources=resources)
        session.sweep(configs[1], "k", 5, 10, 5, resources=resources)
        session.evaluate(configs[1], resources=resources)
        for name, value in before.items():
            assert getattr(resources, name) is value, name
        assert resources.hierarchies == hierarchies


#: The configurations and sweep of the ``compare-transaction-process``
#: benchmark workload, on a smaller dataset.
WORKLOAD_CONFIGS = [
    transaction_config(name, k=5, m=2) for name in ("apriori", "lra", "vpa", "pcta", "coat")
]


def test_single_configuration_sweeps_serve_the_comparison(basket, tmp_path):
    """Regression: a comparison once keyed Apriori, LRA and VPA on the
    utility policy generated for its COAT and PCTA companions, so their
    cells from single-configuration sweeps were all missed."""
    store = CheckpointStore(tmp_path / "cells")
    session = Session(basket).with_checkpoints(store)
    for config in WORKLOAD_CONFIGS:
        session.sweep(config, "k", 5, 20, 5)
    report = session.compare(WORKLOAD_CONFIGS, "k", 5, 20, 5)
    assert report.run_report.checkpoint_counts() == {"hit": 20, "miss": 0, "corrupt": 0}
