"""The correctness gate: every output cell meets the guarantee it promises.

A *cell* is one anonymized output: one configuration at one value of the
swept parameter.  Its promise follows from the configuration's mode:

* relational — k-anonymity, checked with ``k_violations``;
* transaction — k^m-anonymity, checked with ``km_violations``; COAT and
  PCTA are checked at m=1, because their generated privacy policy protects
  single items (as in ``tests/conformance``);
* RT — (k, k^m)-anonymity, checked with ``k_km_violations``.

A cell whose output has lost or gained records fails as well.  The gate
runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.datasets.dataset import Dataset
from repro.engine.config import AnonymizationConfig
from repro.hierarchy.hierarchy import Hierarchy
from repro.metrics.privacy_checks import k_km_violations, k_violations, km_violations

#: Transaction algorithms whose promise is the single-item (m=1) policy.
POLICY_ALGORITHMS = ("coat", "pcta")


@dataclass
class Cell:
    """One anonymized output plus what a reviewer reads off it."""

    label: str
    config: AnonymizationConfig
    anonymized: Dataset
    are: float | None
    gcp: float | None
    ul: float | None


def promised_m(config: AnonymizationConfig) -> int:
    return 1 if config.transaction_algorithm in POLICY_ALGORITHMS else config.m


def violation(
    original: Dataset,
    config: AnonymizationConfig,
    anonymized: Dataset,
    item_hierarchy: Hierarchy | None,
) -> str | None:
    """Why ``anonymized`` breaks the promise of ``config`` (``None``: it holds)."""
    if len(anonymized) != len(original):
        return f"{len(anonymized)} output records for {len(original)} input records"
    k = config.k
    if config.mode == "relational":
        witnesses: list[Any] = k_violations(anonymized, k, max_violations=1)
        promise = f"{k}-anonymity"
    else:
        attribute = config.transaction_attribute or original.single_transaction_attribute()
        universe = original.item_universe(attribute)
        m = promised_m(config)
        if config.mode == "transaction":
            witnesses = km_violations(
                anonymized,
                k,
                m,
                attribute=attribute,
                hierarchy=item_hierarchy,
                universe=universe,
                max_violations=1,
            )
            promise = f"k^m-anonymity (k={k}, m={m})"
        else:
            witnesses = k_km_violations(
                anonymized,
                k,
                m,
                transaction_attribute=attribute,
                hierarchy=item_hierarchy,
                universe=universe,
                max_violations=1,
            )
            promise = f"(k, k^m)-anonymity (k={k}, m={m})"
    if witnesses:
        return f"breaks {promise}: {witnesses[0]}"
    return None


def failures(
    original: Dataset, cells: list[Cell], item_hierarchy: Hierarchy | None
) -> list[str]:
    """One message per failing cell."""
    messages = []
    for cell in cells:
        reason = violation(original, cell.config, cell.anonymized, item_hierarchy)
        if reason is not None:
            messages.append(f"{cell.label}: {reason}")
    return messages
