"""Tests for anonymization configurations."""

import inspect

import pytest

from repro.algorithms.registry import algorithm_names, bounding_methods, get_spec
from repro.engine import (
    AnonymizationConfig,
    relational_config,
    rt_config,
    transaction_config,
)
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_needs_at_least_one_algorithm(self):
        with pytest.raises(ConfigurationError):
            AnonymizationConfig()

    def test_algorithm_kind_checked(self):
        with pytest.raises(ConfigurationError):
            AnonymizationConfig(relational_algorithm="coat")
        with pytest.raises(ConfigurationError):
            AnonymizationConfig(transaction_algorithm="incognito")
        with pytest.raises(ConfigurationError):
            rt_config("cluster", "coat", bounding="incognito")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            relational_config("nope")

    def test_parameter_bounds(self):
        with pytest.raises(ConfigurationError):
            relational_config("cluster", k=1)
        with pytest.raises(ConfigurationError):
            transaction_config("apriori", m=0)
        with pytest.raises(ConfigurationError):
            rt_config("cluster", "apriori", delta=2.0)


#: The constructor keywords ``extra`` may set, per algorithm.
TUNABLE = {
    "incognito": set(),
    "top-down": set(),
    "cluster": set(),
    "full-subtree": set(),
    "coat": set(),
    "pcta": {"merge_candidates"},
    "apriori": {"hierarchy_fanout"},
    "lra": {"partition_size", "hierarchy_fanout"},
    "vpa": {"n_parts", "hierarchy_fanout"},
}


class TestExtraValidation:
    """``extra`` names a selected algorithm, then its constructor keywords."""

    def test_top_level_keyword_without_algorithm_is_rejected(self):
        # It was once ignored silently: VPA ran with its default n_parts.
        with pytest.raises(ConfigurationError, match=r"extra\['n_parts'\] must be a dict of keywords under one of \['transaction'\]"):
            transaction_config("vpa", extra={"n_parts": 1})

    def test_unknown_constructor_keyword_is_rejected(self):
        # It was once a raw TypeError, raised only when the algorithm was built.
        with pytest.raises(ConfigurationError, match=r"'vpa' takes no keyword \['bogus'\]"):
            transaction_config("vpa", extra={"transaction": {"bogus": 1}})

    def test_kind_of_an_unselected_algorithm_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"extra\['relational'\]"):
            transaction_config("vpa", extra={"relational": {"attributes": None}})
        with pytest.raises(ConfigurationError, match=r"extra\['rt'\] must be a dict of keywords under one of \['relational'\]"):
            relational_config("cluster", extra={"rt": {"max_merges": 1}})

    def test_keywords_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="must be a dict of keywords"):
            transaction_config("vpa", extra={"transaction": ["n_parts"]})

    def test_constructor_keywords_are_accepted(self):
        assert transaction_config("vpa", extra={"transaction": {"n_parts": 1}}).extra == {
            "transaction": {"n_parts": 1}
        }
        config = rt_config(
            "cluster",
            "pcta",
            extra={"rt": {"max_merges": 3}, "transaction": {"merge_candidates": 5}},
        )
        assert config.extra["rt"] == {"max_merges": 3}

    def test_accepted_keywords_reach_the_algorithm(self):
        from repro.engine import AnonymizationModule, ExperimentResources

        config = transaction_config("vpa", extra={"transaction": {"n_parts": 1}})
        algorithm = AnonymizationModule(None, ExperimentResources()).build_algorithm(config)
        assert algorithm.n_parts == 1

    def test_keyword_the_module_supplies_is_rejected(self):
        # It was once a raw TypeError ("got multiple values for argument 'k'"),
        # raised only when the algorithm was built.
        with pytest.raises(ConfigurationError, match=r"extra\['transaction'\] may not set \['k'\]"):
            transaction_config("vpa", extra={"transaction": {"k": 3}})

    @pytest.mark.parametrize(
        "name", algorithm_names("relational") + algorithm_names("transaction")
    )
    def test_every_constructor_keyword_is_tunable_or_rejected(self, name):
        """Each keyword either reaches the algorithm or fails at configuration time."""
        from repro.engine import AnonymizationModule, ExperimentResources
        from repro.policies import PrivacyPolicy

        kind = get_spec(name).kind
        make = relational_config if kind == "relational" else transaction_config
        resources = ExperimentResources(privacy_policy=PrivacyPolicy([["a"]], k=2))
        for parameter in inspect.signature(get_spec(name).cls).parameters.values():
            extra = {kind: {parameter.name: parameter.default}}
            if parameter.name in TUNABLE[name]:
                AnonymizationModule(None, resources).build_algorithm(make(name, extra=extra))
            else:
                with pytest.raises(ConfigurationError, match="may not set"):
                    make(name, extra=extra)

    @pytest.mark.parametrize("bounding", bounding_methods())
    def test_rt_slots_are_rejected_and_max_merges_accepted(self, bounding):
        assert rt_config("cluster", "apriori", bounding=bounding, extra={"rt": {"max_merges": 2}})
        for slot in inspect.signature(get_spec(bounding).cls).parameters:
            if slot != "max_merges":
                with pytest.raises(ConfigurationError, match="may not set"):
                    rt_config("cluster", "apriori", bounding=bounding, extra={"rt": {slot: None}})



class TestDerivedViews:
    def test_mode(self):
        assert relational_config("cluster").mode == "relational"
        assert transaction_config("coat").mode == "transaction"
        assert rt_config("cluster", "coat").mode == "rt"

    def test_display_label(self):
        assert relational_config("incognito").display_label == "incognito"
        assert (
            rt_config("cluster", "coat", bounding="tmerger").display_label
            == "cluster+coat/tmerger"
        )
        assert relational_config("cluster", label="mine").display_label == "mine"

    def test_describe_contains_parameters(self):
        description = rt_config("cluster", "apriori", k=7, m=3, delta=0.2).describe()
        assert description["k"] == 7
        assert description["m"] == 3
        assert description["delta"] == 0.2
        assert description["mode"] == "rt"


class TestSweeping:
    def test_with_parameter_casts_types(self):
        config = rt_config("cluster", "apriori", k=5)
        assert config.with_parameter("k", 10.0).k == 10
        assert isinstance(config.with_parameter("k", 10.0).k, int)
        assert config.with_parameter("delta", 0.25).delta == 0.25

    def test_with_parameter_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            relational_config("cluster").with_parameter("fanout", 3)

    def test_replace(self):
        config = relational_config("cluster", k=5)
        other = config.replace(label="renamed")
        assert other.label == "renamed"
        assert config.label is None

    def test_configs_are_immutable(self):
        config = relational_config("cluster")
        with pytest.raises(Exception):
            config.k = 10
