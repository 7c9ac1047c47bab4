"""Every function perfbench's layer tracer wraps is bound where it looks.

``perfbench/layers.py`` times the program's layers from outside: its
``Tracer`` replaces each ``(module, attribute path)`` of ``SETUP_SPANS`` and
``CALL_SPANS`` with a timing wrapper, reading the original through
``owner.__dict__[attribute]``.  A rename or a moved import in ``src/`` turns
every traced benchmark run into a ``KeyError``; this guard resolves each
span the same way, so the rename fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()

SPANS = layers.SETUP_SPANS + layers.CALL_SPANS


@pytest.mark.parametrize("span", SPANS, ids=[f"{module}:{path}" for module, path, _ in SPANS])
def test_span_is_bound_where_the_tracer_wraps_it(span):
    module_name, path, _layer = span
    owner, attribute = layers._resolve(module_name, path)
    assert attribute in vars(owner), (
        f"{module_name}.{path} is not bound in {owner!r}; perfbench's tracer "
        f"reads it through __dict__"
    )
    original = vars(owner)[attribute]
    with layers.Tracer((span,)):
        assert vars(owner)[attribute] is not original
    assert vars(owner)[attribute] is original
