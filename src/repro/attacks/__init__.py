"""Adversarial re-identification attack simulation.

Empirically validates the k / k^m / (k, k^m) guarantees by playing the
prior-knowledge adversary against anonymized outputs, instead of only
asserting the guarantees analytically (:mod:`repro.metrics.privacy_checks`).
"""

from __future__ import annotations

from repro.attacks.coverage import (
    AttributeCoverage,
    coverage_for,
    knowledge_combos,
)
from repro.attacks.simulator import (
    MAX_WITNESSES,
    AttackResult,
    finalize_sizes,
    item_attack,
    qi_attack,
    rt_attack,
    simulate_attacks,
)

__all__ = [
    "AttackResult",
    "AttributeCoverage",
    "MAX_WITNESSES",
    "coverage_for",
    "finalize_sizes",
    "item_attack",
    "knowledge_combos",
    "qi_attack",
    "rt_attack",
    "simulate_attacks",
]
