"""The Method Evaluator: SECRETA's Evaluation mode.

Given a dataset, prepared resources and one configuration, the evaluator runs
the configured algorithm(s) and derives every indicator the Evaluation screen
can plot:

* ARE of the query workload on the anonymized data,
* information-loss measures for the relational side (GCP, discernibility,
  average class size) and the transaction side (UL, item-frequency error),
* the privacy status (minimum class size, k^m / (k, k^m) verification),
* total and per-phase runtime,
* the frequency of generalized values per relational attribute and the
  relative error of transaction item frequencies (the Figure 3 plots).
"""

from __future__ import annotations

from repro.attacks.simulator import AttackResult, item_attack, qi_attack, rt_attack
from repro.datasets.dataset import Dataset
from repro.datasets.statistics import generalized_value_frequencies
from repro.engine.anonymizer import AnonymizationModule
from repro.engine.config import AnonymizationConfig
from repro.engine.resources import ExperimentResources
from repro.engine.results import EvaluationReport
from repro.metrics.privacy_checks import (
    k_km_violations,
    k_violations,
    km_violations,
    min_class_size,
)
from repro.metrics.relational import (
    average_class_size,
    discernibility_metric,
    global_certainty_penalty,
)
# ``evaluate`` averages the per-item errors it already has; the averaging
# function stays importable here because perfbench's layer tracer wraps it
# by this module's name.
from repro.metrics.transaction import (  # noqa: F401
    average_item_frequency_error,
    item_frequency_error,
    mean_item_frequency_error,
    utility_loss,
)
from repro.queries.are import average_relative_error


#: k^m / (k,k^m) verification enumerates item combinations, so it is skipped
#: (reported as ``None``) when the item universe exceeds this limit, exactly
#: like a GUI would avoid freezing on huge data.  The bitset-backed checker
#: (pairwise AND + popcount blocks, with zero-support pruning) verifies far
#: larger universes than the per-record scans it replaced, so the limit is
#: generous.
KM_CHECK_LIMIT = 128


class MethodEvaluator:
    """Evaluate a single anonymization configuration (Evaluation mode).

    ARE resolves generalized labels against the original dataset's attribute
    domains (captured when the resources are resolved), which makes it
    consistent with the utility-loss charging rule on root-generalized
    outputs (``docs/queries.md``).
    """

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = True,
        simulate_attacks: bool = False,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        #: Whether to additionally play the prior-knowledge adversary against
        #: every anonymized output (:mod:`repro.attacks`) and report the
        #: empirical guarantees alongside the analytic privacy status.
        self.simulate_attacks = simulate_attacks

    # -- indicator computation ----------------------------------------------------
    def _utility_indicators(
        self,
        config: AnonymizationConfig,
        resources: ExperimentResources,
        anonymized: Dataset,
        item_errors: dict[str, float],
    ) -> dict[str, float]:
        indicators: dict[str, float] = {}
        if config.relational_algorithm is not None:
            attributes = config.relational_attributes_in(self.dataset)
            indicators["relational_gcp"] = global_certainty_penalty(
                self.dataset, anonymized, attributes, resources.hierarchies
            )
            indicators["discernibility"] = float(
                discernibility_metric(anonymized, attributes)
            )
            indicators["average_class_size"] = average_class_size(
                anonymized, config.k, attributes
            )
        transaction_attribute = config.transaction_attribute_in(self.dataset)
        if config.transaction_algorithm is not None and transaction_attribute:
            indicators["transaction_ul"] = utility_loss(
                self.dataset,
                anonymized,
                attribute=transaction_attribute,
                hierarchy=resources.item_hierarchy,
            )
            indicators["item_frequency_error"] = mean_item_frequency_error(
                item_errors
            )
        return indicators

    def _privacy_status(
        self,
        config: AnonymizationConfig,
        resources: ExperimentResources,
        anonymized: Dataset,
    ) -> dict:
        status: dict = {"k": config.k}
        attributes = config.relational_attributes_in(self.dataset)
        transaction_attribute = config.transaction_attribute_in(self.dataset)
        universe = (
            self.dataset.item_universe(transaction_attribute)
            if transaction_attribute
            else set()
        )
        km_feasible = len(universe) <= KM_CHECK_LIMIT
        if config.relational_algorithm is not None:
            status["min_class_size"] = min_class_size(anonymized, attributes)
            k_witnesses = (
                k_violations(anonymized, config.k, attributes, max_violations=1)
                if len(anonymized)
                else []
            )
            status["k_anonymous"] = not k_witnesses
            if k_witnesses:
                status["k_witness"] = k_witnesses[0]
        if config.transaction_algorithm is not None and transaction_attribute:
            status["m"] = config.m
            if not self.verify_privacy or not km_feasible:
                status["km_anonymous"] = None
            elif config.mode == "rt":
                witnesses = k_km_violations(
                    anonymized,
                    config.k,
                    config.m,
                    relational_attributes=attributes,
                    transaction_attribute=transaction_attribute,
                    hierarchy=resources.item_hierarchy,
                    universe=universe,
                    max_violations=1,
                )
                status["k_km_anonymous"] = not witnesses
                if witnesses:
                    status["k_km_witness"] = witnesses[0]
            else:
                km_witnesses = km_violations(
                    anonymized,
                    config.k,
                    config.m,
                    attribute=transaction_attribute,
                    hierarchy=resources.item_hierarchy,
                    universe=universe,
                    max_violations=1,
                )
                status["km_anonymous"] = not km_witnesses
                if km_witnesses:
                    status["km_witness"] = km_witnesses[0]
        return status

    def _attack_status(
        self,
        config: AnonymizationConfig,
        resources: ExperimentResources,
        anonymized: Dataset,
    ) -> dict[str, AttackResult]:
        """Simulated re-identification attacks matching the configuration.

        Each adversary is played only where the configuration makes a
        promise: a QI-matching adversary when a relational algorithm ran, an
        item-knowledge adversary (``m`` known items) when a transaction
        algorithm ran, and the combined adversary for RT mode.
        """
        attacks: dict[str, AttackResult] = {}
        attributes = config.relational_attributes_in(self.dataset)
        transaction_attribute = config.transaction_attribute_in(self.dataset)
        if config.relational_algorithm is not None and attributes:
            attacks["qi"] = qi_attack(
                self.dataset,
                anonymized,
                attributes=attributes,
                hierarchies=resources.hierarchies,
            )
        if config.transaction_algorithm is not None and transaction_attribute:
            attacks["item"] = item_attack(
                self.dataset,
                anonymized,
                config.m,
                attribute=transaction_attribute,
                hierarchy=resources.item_hierarchy,
            )
        if config.mode == "rt" and attributes and transaction_attribute:
            attacks["rt"] = rt_attack(
                self.dataset,
                anonymized,
                config.m,
                relational_attributes=attributes,
                transaction_attribute=transaction_attribute,
                hierarchies=resources.hierarchies,
                item_hierarchy=resources.item_hierarchy,
            )
        return attacks

    # -- main -------------------------------------------------------------------------
    def evaluate(self, config: AnonymizationConfig) -> EvaluationReport:
        """Run the configuration and compute every Evaluation-mode indicator.

        The evaluator's resources are resolved for ``config``
        (:meth:`~repro.engine.resources.ExperimentResources.for_config`);
        their fields stay as they are.
        """
        resources = self.resources.for_config(self.dataset, config)
        result = AnonymizationModule(self.dataset, resources).run(config)
        anonymized = result.dataset

        transaction_attribute = config.transaction_attribute_in(self.dataset)
        hierarchies = resources.hierarchies_with_items(transaction_attribute)
        if resources.workload is None:
            # A dataset with nothing to query gets no generated workload;
            # ARE is simply not computable then, rather than a crash.
            are = None
        else:
            are = average_relative_error(
                resources.workload,
                self.dataset,
                anonymized,
                hierarchies=hierarchies,
                domains=resources.domains,
            ).are

        generalized_frequencies = {}
        if config.relational_algorithm is not None:
            for attribute in config.relational_attributes_in(self.dataset):
                generalized_frequencies[attribute] = generalized_value_frequencies(
                    anonymized, attribute
                )
        item_errors: dict[str, float] = {}
        if config.transaction_algorithm is not None and transaction_attribute:
            item_errors = item_frequency_error(
                self.dataset,
                anonymized,
                attribute=transaction_attribute,
                hierarchy=resources.item_hierarchy,
            )

        return EvaluationReport(
            configuration=config.describe(),
            result=result,
            utility=self._utility_indicators(config, resources, anonymized, item_errors),
            privacy=self._privacy_status(config, resources, anonymized),
            are=are,
            runtime_seconds=result.runtime_seconds,
            phase_seconds=dict(result.phase_seconds),
            generalized_value_frequencies=generalized_frequencies,
            item_frequency_errors=item_errors,
            attacks=(
                self._attack_status(config, resources, anonymized)
                if self.simulate_attacks
                else {}
            ),
        )
