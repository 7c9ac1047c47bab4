"""Transaction (set-valued attribute) anonymization algorithms."""

from __future__ import annotations

from repro.algorithms.transaction.apriori import AprioriAnonymizer
from repro.algorithms.transaction.coat import Coat
from repro.algorithms.transaction.lra import LraAnonymizer
from repro.algorithms.transaction.pcta import Pcta
from repro.algorithms.transaction.vpa import VpaAnonymizer

__all__ = [
    "AprioriAnonymizer",
    "Coat",
    "LraAnonymizer",
    "Pcta",
    "VpaAnonymizer",
]
