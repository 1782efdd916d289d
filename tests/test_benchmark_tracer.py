"""The benchmark's span tracer (``mapbench/tracing.py``) patches mapchain
names by string; these tests fail when a rename in ``src/`` breaks it."""
import importlib
import os
import sys

import numpy as np

import mapchain.chain
import mapchain.cli
from mapchain.chain import PairTable, run_chain
from mapchain.constraints import ConstraintGate

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID4 = os.path.join(REPO, "tests", "fixtures", "grid4")
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


def test_a_chain_command_reads_its_inputs_through_the_wrapped_names(tmp_path):
    # io.read_graph_s and io.read_assignment_s are the spans of cli.read_graph
    # and cli.read_assignment, so the command must call those attributes
    settings = ["--set", "steps=5", "--set", f"out_dir={tmp_path}"]
    for key in ("nodes", "edges", "assignment"):
        settings += ["--set", f"{key}={os.path.join(GRID4, key + '.csv')}"]
    recorder = tracing.Recorder(sample_every=1)
    tracing.install(recorder)
    try:
        code = mapchain.cli.main(["chain", "--config", os.path.join(GRID4, "chain.cfg"), *settings])
    finally:
        tracing.uninstall()
    assert code == 0
    names = [span[0] for span in recorder.spans]
    assert names.count("io.read_graph") == 1
    assert names.count("io.read_assignment") == 1


def test_uniform_step_chooses_its_pair_in_one_wrapped_call(grid4, band4, mcfg2, monkeypatch):
    # chain.pair_select_s is the time spent in the wrapped adjacent_district_pairs
    real, calls = mapchain.chain.adjacent_district_pairs, []

    def counted(graph, plan, pairs=None):
        calls.append(pairs)
        return real(graph, plan, pairs)

    monkeypatch.setattr(mapchain.chain, "adjacent_district_pairs", counted)
    trace = run_chain(grid4, band4, 20, 0.01, ConstraintGate.permissive(), mcfg2,
                      np.random.default_rng(0))
    assert trace.accepted > 0
    assert len(calls) == 20
    assert all(isinstance(pairs, PairTable) for pairs in calls)
