"""The benchmark's span tracer (``mapbench/tracing.py``) patches mapchain
names by string; these tests fail when a rename in ``src/`` breaks it."""
import importlib
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)
tracing = importlib.import_module("mapbench.tracing")


def test_every_wrapped_name_resolves():
    for module, attr, *_ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_install_then_uninstall_restores_originals():
    tracing.install(tracing.Recorder(sample_every=1))
    try:
        assert len(tracing.installed_wrappers()) == len(tracing.WRAPPED)
    finally:
        tracing.uninstall()
    assert tracing.installed_wrappers() == []
    for module, attr, *_ in tracing.WRAPPED:
        assert getattr(module, attr) is tracing.ORIGINALS[(module.__name__, attr)]
