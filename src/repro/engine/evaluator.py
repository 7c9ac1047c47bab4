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
    quasi_identifier_attributes,
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


class MethodEvaluator:
    """Evaluate a single anonymization configuration (Evaluation mode)."""

    def __init__(
        self,
        dataset: Dataset,
        resources: ExperimentResources | None = None,
        verify_privacy: bool = True,
        km_check_limit: int = 128,
        universe_mode: str = "original",
        simulate_attacks: bool = False,
        attack_knowledge_cap: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.resources = resources or ExperimentResources()
        self.verify_privacy = verify_privacy
        #: Whether to additionally play the prior-knowledge adversary against
        #: every anonymized output (:mod:`repro.attacks`) and report the
        #: empirical guarantees alongside the analytic privacy status.
        self.simulate_attacks = simulate_attacks
        #: Cap on the number of item combinations probed per distinct basket
        #: during attack simulation (``None`` = exhaustive); results note
        #: truncation so a capped attack is never mistaken for a proof.
        self.attack_knowledge_cap = attack_knowledge_cap
        #: How ARE resolves generalized labels: ``"original"`` keys the query
        #: interpreters by the original dataset's attribute domains (captured
        #: in the resources at prepare time), making ARE consistent with the
        #: utility-loss charging rule on root-generalized outputs;
        #: ``"seed"`` keeps the hierarchy-only resolution (the regression
        #: reference).
        self.universe_mode = universe_mode
        #: k^m / (k,k^m) verification enumerates item combinations, so it is
        #: skipped (reported as ``None``) when the item universe exceeds this
        #: limit, exactly like a GUI would avoid freezing on huge data.  The
        #: bitset-backed checker (pairwise AND + popcount blocks, with
        #: zero-support pruning) verifies far larger universes than the
        #: per-record scans it replaced, so the default is generous.
        self.km_check_limit = km_check_limit

    # -- indicator computation ----------------------------------------------------
    def _relational_attributes(self, config: AnonymizationConfig) -> list[str]:
        if config.relational_attributes is not None:
            return list(config.relational_attributes)
        return quasi_identifier_attributes(self.dataset)

    def _transaction_attribute(self, config: AnonymizationConfig) -> str | None:
        if config.transaction_attribute:
            return config.transaction_attribute
        names = self.dataset.schema.transaction_names
        return names[0] if names else None

    def _utility_indicators(
        self,
        config: AnonymizationConfig,
        anonymized: Dataset,
        item_errors: dict[str, float],
    ) -> dict[str, float]:
        indicators: dict[str, float] = {}
        if config.relational_algorithm is not None:
            attributes = self._relational_attributes(config)
            indicators["relational_gcp"] = global_certainty_penalty(
                self.dataset, anonymized, attributes, self.resources.hierarchies
            )
            indicators["discernibility"] = float(
                discernibility_metric(anonymized, attributes)
            )
            indicators["average_class_size"] = average_class_size(
                anonymized, config.k, attributes
            )
        transaction_attribute = self._transaction_attribute(config)
        if config.transaction_algorithm is not None and transaction_attribute:
            indicators["transaction_ul"] = utility_loss(
                self.dataset,
                anonymized,
                attribute=transaction_attribute,
                hierarchy=self.resources.item_hierarchy,
            )
            indicators["item_frequency_error"] = mean_item_frequency_error(
                item_errors
            )
        return indicators

    def _privacy_status(
        self, config: AnonymizationConfig, anonymized: Dataset
    ) -> dict:
        status: dict = {"k": config.k}
        attributes = self._relational_attributes(config)
        transaction_attribute = self._transaction_attribute(config)
        universe = (
            self.dataset.item_universe(transaction_attribute)
            if transaction_attribute
            else set()
        )
        km_feasible = len(universe) <= self.km_check_limit
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
                    hierarchy=self.resources.item_hierarchy,
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
                    hierarchy=self.resources.item_hierarchy,
                    universe=universe,
                    max_violations=1,
                )
                status["km_anonymous"] = not km_witnesses
                if km_witnesses:
                    status["km_witness"] = km_witnesses[0]
        return status

    def _attack_status(
        self, config: AnonymizationConfig, anonymized: Dataset
    ) -> dict[str, AttackResult]:
        """Simulated re-identification attacks matching the configuration.

        Each adversary is played only where the configuration makes a
        promise: a QI-matching adversary when a relational algorithm ran, an
        item-knowledge adversary (``m`` known items) when a transaction
        algorithm ran, and the combined adversary for RT mode.
        """
        attacks: dict[str, AttackResult] = {}
        attributes = self._relational_attributes(config)
        transaction_attribute = self._transaction_attribute(config)
        if config.relational_algorithm is not None and attributes:
            attacks["qi"] = qi_attack(
                self.dataset,
                anonymized,
                attributes=attributes,
                hierarchies=self.resources.hierarchies,
            )
        if config.transaction_algorithm is not None and transaction_attribute:
            attacks["item"] = item_attack(
                self.dataset,
                anonymized,
                config.m,
                attribute=transaction_attribute,
                hierarchy=self.resources.item_hierarchy,
                knowledge_cap=self.attack_knowledge_cap,
            )
        if config.mode == "rt" and attributes and transaction_attribute:
            attacks["rt"] = rt_attack(
                self.dataset,
                anonymized,
                config.m,
                relational_attributes=attributes,
                transaction_attribute=transaction_attribute,
                hierarchies=self.resources.hierarchies,
                item_hierarchy=self.resources.item_hierarchy,
                knowledge_cap=self.attack_knowledge_cap,
            )
        return attacks

    # -- main -------------------------------------------------------------------------
    def evaluate(self, config: AnonymizationConfig) -> EvaluationReport:
        """Run the configuration and compute every Evaluation-mode indicator."""
        module = AnonymizationModule(self.dataset, self.resources)
        result = module.run(config)
        anonymized = result.dataset

        transaction_attribute = self._transaction_attribute(config)
        hierarchies = self.resources.hierarchies_with_items(transaction_attribute)
        if self.resources.workload is None:
            # A dataset with nothing to query gets no generated workload;
            # ARE is simply not computable then, rather than a crash.
            are = None
        else:
            are = average_relative_error(
                self.resources.workload,
                self.dataset,
                anonymized,
                hierarchies=hierarchies,
                domains=self.resources.domains,
                universe_mode=self.universe_mode,
            ).are

        generalized_frequencies = {}
        if config.relational_algorithm is not None:
            for attribute in self._relational_attributes(config):
                generalized_frequencies[attribute] = generalized_value_frequencies(
                    anonymized, attribute
                )
        item_errors: dict[str, float] = {}
        if config.transaction_algorithm is not None and transaction_attribute:
            item_errors = item_frequency_error(
                self.dataset,
                anonymized,
                attribute=transaction_attribute,
                hierarchy=self.resources.item_hierarchy,
            )

        return EvaluationReport(
            configuration=config.describe(),
            result=result,
            utility=self._utility_indicators(config, anonymized, item_errors),
            privacy=self._privacy_status(config, anonymized),
            are=are,
            runtime_seconds=result.runtime_seconds,
            phase_seconds=dict(result.phase_seconds),
            generalized_value_frequencies=generalized_frequencies,
            item_frequency_errors=item_errors,
            attacks=(
                self._attack_status(config, anonymized)
                if self.simulate_attacks
                else {}
            ),
        )
