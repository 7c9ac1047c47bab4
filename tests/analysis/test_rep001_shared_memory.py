"""REP001: shared-memory lifecycle fixtures."""

from __future__ import annotations

from lint_harness import new_codes

from repro.analysis.manifest import InvariantManifest

UNGUARDED = """
    from multiprocessing import shared_memory

    def leak(size):
        segment = shared_memory.SharedMemory(create=True, size=size)
        return segment.name
"""

TRY_FINALLY = """
    from multiprocessing import shared_memory

    def careful(size):
        segment = shared_memory.SharedMemory(create=True, size=size)
        try:
            return segment.name
        finally:
            segment.unlink()
"""

EXCEPT_RERAISE = """
    from multiprocessing import shared_memory

    def careful(size):
        segment = shared_memory.SharedMemory(create=True, size=size)
        try:
            return fill(segment)
        except Exception:
            segment.unlink()
            raise
"""

FINALIZE_GUARD = """
    import weakref
    from multiprocessing import shared_memory

    class Export:
        def __init__(self, size):
            self._segment = shared_memory.SharedMemory(create=True, size=size)
            self._finalizer = weakref.finalize(self, cleanup, self._segment)
"""

WITH_STATEMENT = """
    from multiprocessing import shared_memory

    def scoped(size):
        with shared_memory.SharedMemory(create=True, size=size) as segment:
            return segment.name
"""

ATTACH_ONLY = """
    from multiprocessing import shared_memory

    def attach(name):
        return shared_memory.SharedMemory(name=name)
"""

NESTED_FINALIZE_DOES_NOT_GUARD = """
    import weakref
    from multiprocessing import shared_memory

    def leak(size):
        segment = shared_memory.SharedMemory(create=True, size=size)

        def later():
            weakref.finalize(segment, segment.unlink)

        return segment
"""

BARE_CONSTRUCTOR = """
    from multiprocessing.shared_memory import SharedMemory

    def leak(size):
        segment = SharedMemory(create=True, size=size)
        return segment.name
"""

MODULE_LEVEL = """
    from multiprocessing import shared_memory

    SEGMENT = shared_memory.SharedMemory(create=True, size=64)
"""

#: ``_release`` closes and unlinks, but only a manifest entry tells REP001 so.
HELPER_IN_FINALLY = """
    from multiprocessing import shared_memory

    def _release(segment):
        segment.close()
        segment.unlink()

    def export(payload):
        segment = shared_memory.SharedMemory(create=True, size=1024)
        try:
            copy_in(segment, payload)
        finally:
            _release(segment)
"""

EXCEPT_CLEANUP_SWALLOWS = """
    from multiprocessing import shared_memory

    def careless(size):
        segment = shared_memory.SharedMemory(create=True, size=size)
        try:
            return fill(segment)
        except Exception:
            segment.unlink()
            return None
"""

BARE_FINALIZE = """
    from multiprocessing import shared_memory
    from weakref import finalize

    class Export:
        def __init__(self, size):
            self._segment = shared_memory.SharedMemory(create=True, size=size)
            self._finalizer = finalize(self, cleanup, self._segment)
"""

#: A ``close`` method elsewhere in the class does not run if ``__init__``
#: raises after the create, so it does not guard the creating scope.
CLOSE_METHOD_ONLY = """
    from multiprocessing import shared_memory

    class Holder:
        def __init__(self, size):
            self.segment = shared_memory.SharedMemory(create=True, size=size)
            prepare(self.segment)

        def close(self):
            self.segment.close()
            self.segment.unlink()
"""


class TestRep001:
    def test_unguarded_create_is_flagged(self, harness):
        findings = harness.findings("src/pkg/mod.py", UNGUARDED, select=["REP001"])
        assert new_codes(findings) == ["REP001"]
        assert findings[0].symbol == "leak"

    def test_try_finally_unlink_is_clean(self, harness):
        assert harness.findings("src/pkg/mod.py", TRY_FINALLY, select=["REP001"]) == []

    def test_except_cleanup_with_reraise_is_clean(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", EXCEPT_RERAISE, select=["REP001"]
        )
        assert new_codes(findings) == []

    def test_weakref_finalize_in_same_scope_is_clean(self, harness):
        assert (
            harness.findings("src/pkg/mod.py", FINALIZE_GUARD, select=["REP001"])
            == []
        )

    def test_context_manager_is_clean(self, harness):
        assert (
            harness.findings("src/pkg/mod.py", WITH_STATEMENT, select=["REP001"])
            == []
        )

    def test_attach_without_create_is_clean(self, harness):
        assert harness.findings("src/pkg/mod.py", ATTACH_ONLY, select=["REP001"]) == []

    def test_finalize_in_nested_function_does_not_count(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", NESTED_FINALIZE_DOES_NOT_GUARD, select=["REP001"]
        )
        assert new_codes(findings) == ["REP001"]

    def test_suppression_with_reason_is_honored(self, harness):
        source = UNGUARDED.replace(
            "create=True, size=size)",
            "create=True, size=size)  # repro: allow[REP001] -- fixture leak",
        )
        findings = harness.findings("src/pkg/mod.py", source, select=["REP001"])
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].suppression_reason == "fixture leak"
        assert new_codes(findings) == []

    def test_bare_imported_constructor_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", BARE_CONSTRUCTOR, select=["REP001"]
        )
        assert new_codes(findings) == ["REP001"]
        assert findings[0].symbol == "leak"

    def test_module_level_create_is_flagged(self, harness):
        findings = harness.findings("src/pkg/mod.py", MODULE_LEVEL, select=["REP001"])
        assert new_codes(findings) == ["REP001"]

    def test_manifest_cleanup_helper_in_finally_is_clean(self, harness):
        manifest = InvariantManifest.from_mapping(
            {"rep001": {"cleanup_helpers": ["_release"]}}
        )
        findings = harness.findings(
            "src/pkg/mod.py", HELPER_IN_FINALLY, manifest=manifest, select=["REP001"]
        )
        assert new_codes(findings) == []

    def test_undeclared_cleanup_helper_does_not_count(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", HELPER_IN_FINALLY, select=["REP001"]
        )
        assert new_codes(findings) == ["REP001"]
        assert findings[0].symbol == "export"

    def test_except_cleanup_without_reraise_is_flagged(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", EXCEPT_CLEANUP_SWALLOWS, select=["REP001"]
        )
        assert new_codes(findings) == ["REP001"]

    def test_bare_finalize_import_guards(self, harness):
        findings = harness.findings("src/pkg/mod.py", BARE_FINALIZE, select=["REP001"])
        assert new_codes(findings) == []

    def test_close_method_alone_does_not_guard_the_constructor(self, harness):
        findings = harness.findings(
            "src/pkg/mod.py", CLOSE_METHOD_ONLY, select=["REP001"]
        )
        assert new_codes(findings) == ["REP001"]
        assert findings[0].symbol == "Holder.__init__"
