"""The REP0xx rule catalogue.

Importing this package registers every rule with the framework registry
(:func:`repro.analysis.core.all_rules` does so lazily).  One module per rule
keeps each invariant's full story — detection logic, rationale, escape
hatches — in one reviewable place.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    rep001_shared_memory,
    rep002_cache_discipline,
    rep003_kernel_parity,
    rep004_hot_loops,
    rep005_exceptions,
    rep006_process_safety,
    rep007_retry_discipline,
    rep008_durability,
)
