import os
import shutil
from dataclasses import fields

import contextlib
import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapchain
from mapchain.cli import main
from mapchain.io import RunConfig, write_assignment
from mapchain.synth import band_plan, grid4_graph

GRID4 = os.path.join(os.path.dirname(__file__), "fixtures", "grid4")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """Copy the grid4 fixture into an isolated working directory."""
    dest = tmp_path / "tests" / "fixtures" / "grid4"
    shutil.copytree(GRID4, dest)
    monkeypatch.chdir(tmp_path)
    return tmp_path


CFG = "tests/fixtures/grid4/chain.cfg"


def test_chain_writes_outputs(workdir, capsys):
    assert main(["chain", "--config", CFG]) == 0
    out = workdir / "out" / "grid4"
    for name in ("trace.csv", "summary.csv", "acf.csv", "hist_seats_avg.svg",
                 "hist_seats_index.svg"):
        assert (out / name).exists(), name
    assert (out / "acf.csv").read_text().splitlines()[0] == "lag,rho"
    stdout = capsys.readouterr().out
    assert "proposed=" in stdout and "accepted=" in stdout


def test_chain_deterministic_across_runs(workdir):
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/a"]) == 0
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/b"]) == 0
    a = (workdir / "out" / "a" / "trace.csv").read_bytes()
    b = (workdir / "out" / "b" / "trace.csv").read_bytes()
    assert a == b


def test_chain_seed_changes_trace(workdir):
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/a"]) == 0
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/c",
                 "--set", "seed=99"]) == 0
    a = (workdir / "out" / "a" / "trace.csv").read_bytes()
    c = (workdir / "out" / "c" / "trace.csv").read_bytes()
    assert a != c


def test_chain_parallel_chains_deterministic(workdir):
    args = ["chain", "--config", CFG, "--set", "n_chains=2",
            "--set", "workers=2", "--set", "steps=30"]
    assert main(args + ["--set", "out_dir=out/p1"]) == 0
    assert main(args + ["--set", "out_dir=out/p2"]) == 0
    assert (workdir / "out/p1/trace.csv").read_bytes() == (
        workdir / "out/p2/trace.csv"
    ).read_bytes()


def test_chain_zero_keeps_the_one_chain_stream_and_chain_one_differs(workdir):
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/one"]) == 0
    assert main(["chain", "--config", CFG, "--set", "n_chains=2",
                 "--set", "burn_in=0", "--set", "out_dir=out/two"]) == 0
    one = (workdir / "out/one/trace.csv").read_text().splitlines()
    two = (workdir / "out/two/trace.csv").read_text().splitlines()
    assert len(one) == 61 and len(two) == 121
    assert two[:61] == one
    # steps are renumbered across chains: compare everything but the step
    chain0 = [row.split(",", 1)[1] for row in two[1:61]]
    chain1 = [row.split(",", 1)[1] for row in two[61:]]
    assert chain1 != chain0


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_data_error_exits_3_with_one_error_line(workdir, capsys, workers):
    # zero district A's PRES votes: each chain fails when it scores its seed
    nodes = workdir / "tests" / "fixtures" / "grid4" / "nodes.csv"
    assignment = workdir / "tests" / "fixtures" / "grid4" / "assignment.csv"
    in_a = {row.split(",")[0] for row in assignment.read_text().splitlines()
            if row.endswith(",A")}
    header, *rows = nodes.read_text().splitlines()
    columns = header.split(",")
    zeroed = []
    for row in rows:
        cells = row.split(",")
        if cells[0] in in_a:
            cells[columns.index("PRES_D")] = cells[columns.index("PRES_R")] = "0"
        zeroed.append(",".join(cells))
    nodes.write_text("\n".join([header, *zeroed]) + "\n")
    code = main(["chain", "--config", CFG, "--set", "n_chains=2",
                 "--set", f"workers={workers}"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR ZeroVotesDistrict:")
    assert err.count("\n") == 1


def test_chain_rejecting_seed_fails_with_exit_3(workdir, capsys):
    code = main(["chain", "--config", CFG, "--set", "mode=reject",
                 "--set", "county_cap=1", "--set", "muni_cap=1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR InvalidSeedPlan:")
    assert err.count("\n") == 1  # single diagnostic line


def test_chain_reject_mode_runs_with_loose_caps(workdir):
    assert main(["chain", "--config", CFG, "--set", "mode=reject",
                 "--set", "county_cap=4", "--set", "muni_cap=6",
                 "--set", "out_dir=out/rej"]) == 0
    assert (workdir / "out/rej/trace.csv").exists()


@pytest.mark.parametrize("command", ["chain", "sweep"])
def test_muni_cap_zero_allows_no_split_municipality(workdir, capsys, command):
    # the grid4 seed plan splits 4 municipalities
    args = [command, "--config", CFG, "--set", "mode=reject", "--set", "steps=20",
            "--set", "n_plans=4", "--set", "sweep_replicates=1", "--set", "out_dir=out/cap"]
    assert main(args + ["--set", "muni_cap=0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR InvalidSeedPlan: constraint gate:")
    assert "muni_splits=4" in err and err.count("\n") == 1
    assert main(args + ["--set", "muni_cap=4"]) == 0


def test_sweep_cap_must_admit_seed(workdir, capsys):
    # the row-band seed plan splits every county
    write_assignment(band_plan(4, 4, 4), grid4_graph(), "band.csv")
    code = main(["sweep", "--config", CFG, "--set", "assignment=band.csv",
                 "--set", "sweep_caps=0,1",
                 "--set", "steps=10", "--set", "sweep_replicates=1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR InvalidSeedPlan:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("burn_in", [60, 61])
@pytest.mark.parametrize("command", ["chain", "sweep"])
def test_burn_in_past_the_last_step_fails_before_sampling(workdir, capsys, monkeypatch,
                                                          command, burn_in):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking burn_in")

    monkeypatch.setattr("mapchain.cli.run_chain", no_sampling)
    monkeypatch.setattr("mapchain.cli.tree_ensemble", no_sampling)
    assert main([command, "--config", CFG, "--set", f"burn_in={burn_in}"]) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR ConfigError: burn_in={burn_in} leaves no rows of steps=60\n"


def test_chain_gibbs_mode_runs(workdir):
    assert main(["chain", "--config", CFG, "--set", "mode=gibbs",
                 "--set", "out_dir=out/gibbs"]) == 0


def test_tree_command(workdir, capsys):
    assert main(["tree", "--config", CFG, "--set", "out_dir=out/tree"]) == 0
    assert (workdir / "out/tree/trace.csv").exists()
    stdout = capsys.readouterr().out
    assert "plans=40" in stdout


def test_tree_and_sweep_deterministic(workdir):
    tree_args = ["tree", "--config", CFG, "--set", "n_plans=15"]
    assert main(tree_args + ["--set", "out_dir=out/t1"]) == 0
    assert main(tree_args + ["--set", "out_dir=out/t2"]) == 0
    assert (workdir / "out/t1/trace.csv").read_bytes() == (
        workdir / "out/t2/trace.csv"
    ).read_bytes()
    sweep_args = ["sweep", "--config", CFG, "--set", "steps=20",
                  "--set", "burn_in=2", "--set", "n_plans=8",
                  "--set", "sweep_replicates=1"]
    assert main(sweep_args + ["--set", "out_dir=out/s1"]) == 0
    assert main(sweep_args + ["--set", "out_dir=out/s2"]) == 0
    assert (workdir / "out/s1/sweep.csv").read_bytes() == (
        workdir / "out/s2/sweep.csv"
    ).read_bytes()


def test_score_command(workdir, capsys):
    assert main(["score", "--config", CFG, "--set", "out_dir=out/score"]) == 0
    stdout = capsys.readouterr().out
    assert "seats_avg = " in stdout
    assert "efficiency_gap = " in stdout
    report = (workdir / "out/score/report.csv").read_text().splitlines()
    assert report[0].startswith("seats_avg,")
    assert len(report) == 2


def test_score_matches_naive_oracle(workdir):
    from mapchain.io import read_assignment, read_graph
    from mapchain.metrics import MetricsConfig
    from mapchain.oracle import naive_score

    assert main(["score", "--config", CFG, "--set", "out_dir=out/sc2"]) == 0
    values = (workdir / "out/sc2/report.csv").read_text().splitlines()[1].split(",")
    graph = read_graph("tests/fixtures/grid4/nodes.csv", "tests/fixtures/grid4/edges.csv")
    plan, _ = read_assignment("tests/fixtures/grid4/assignment.csv", graph)
    expected = naive_score(graph, plan, MetricsConfig(("PRES", "SEN")))
    assert float(values[0]) == pytest.approx(expected.seats_avg, abs=1e-12)
    assert float(values[3]) == pytest.approx(expected.efficiency_gap, abs=1e-12)


def test_score_assignment_flag_wins_over_the_config(workdir):
    write_assignment(band_plan(4, 4, 4), grid4_graph(), "band.csv")
    assert main(["score", "--config", CFG, "--set", "out_dir=out/fixture"]) == 0
    assert main(["score", "--config", CFG, "--set", "out_dir=out/band",
                 "--set", "assignment=band.csv"]) == 0
    assert main(["score", "--config", CFG, "--set", "out_dir=out/flag",
                 "--set", "assignment=nope.csv", "--assignment", "band.csv"]) == 0
    band = (workdir / "out/band/report.csv").read_bytes()
    assert (workdir / "out/flag/report.csv").read_bytes() == band
    assert (workdir / "out/fixture/report.csv").read_bytes() != band


def test_sweep_command(workdir, capsys):
    assert main(["sweep", "--config", CFG, "--set", "out_dir=out/sweep",
                 "--set", "steps=25", "--set", "n_plans=10",
                 "--set", "burn_in=4", "--set", "sweep_replicates=1"]) == 0
    sweep = (workdir / "out/sweep/sweep.csv").read_text().splitlines()
    assert sweep[0] == "cap,mean,std,n,fitted"
    assert len(sweep) == 5  # 3 caps + extrapolated row
    assert sweep[-1].endswith(",1")
    svg = (workdir / "out/sweep/sweep.svg").read_text()
    assert '<line class="fit"' in svg
    assert '<line class="baseline"' in svg
    stdout = capsys.readouterr().out
    assert "slope=" in stdout


def test_bench_command(workdir, capsys):
    assert main(["bench", "--config", CFG, "--set", "out_dir=out/bench",
                 "--set", "bench_iterations=40", "--set", "bench_tree_plans=4"]) == 0
    lines = (workdir / "out/bench/bench.csv").read_text().splitlines()
    assert lines[0] == "configuration,read_in_sec,iterations,seconds"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["chain_unconstrained", "chain_reject", "chain_gibbs", "random_tree"]


def test_bench_iteration_counts_stable(workdir):
    args = ["bench", "--config", CFG, "--set", "bench_iterations=25",
            "--set", "bench_tree_plans=3"]
    assert main(args + ["--set", "out_dir=out/b1"]) == 0
    assert main(args + ["--set", "out_dir=out/b2"]) == 0
    rows1 = [l.split(",")[2] for l in (workdir / "out/b1/bench.csv").read_text().splitlines()[1:]]
    rows2 = [l.split(",")[2] for l in (workdir / "out/b2/bench.csv").read_text().splitlines()[1:]]
    assert rows1 == rows2  # identical work; only the timings may differ


def test_enumerate_command(workdir, capsys):
    assert main(["enumerate", "--config", CFG, "--set", "out_dir=out/cat",
                 "--set", "districts=4"]) == 0
    stdout = capsys.readouterr().out
    assert "catalog size: 117" in stdout
    files = sorted(os.listdir(workdir / "out/cat"))
    assert len(files) == 117
    assert files[0] == "catalog_0000.csv"


def test_enumerate_rerun_removes_the_earlier_catalog(workdir, capsys):
    args = ["enumerate", "--config", CFG, "--set", "out_dir=out/cat"]
    assert main(args + ["--set", "districts=4"]) == 0
    assert main(args + ["--set", "districts=8"]) == 0
    assert "catalog size: 36" in capsys.readouterr().out
    files = sorted(os.listdir(workdir / "out/cat"))
    assert files == [f"catalog_{i:04d}.csv" for i in range(36)]


def test_config_directory_exits_2(workdir, capsys):
    (workdir / "cfgdir").mkdir()
    assert main(["chain", "--config", "cfgdir"]) == 2
    assert capsys.readouterr().err == "ERROR ConfigError: cfgdir: cannot read (Is a directory)\n"


def test_nodes_directory_exits_3(workdir, capsys):
    (workdir / "nodesdir").mkdir()
    assert main(["chain", "--config", CFG, "--set", "nodes=nodesdir"]) == 3
    assert capsys.readouterr().err == (
        "ERROR IngestError: nodesdir: cannot read (Is a directory)\n"
    )


def test_unknown_config_key_exits_2(workdir, capsys):
    code = main(["chain", "--config", CFG, "--set", "bogus=1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR ConfigError:")


def test_missing_nodes_file_exits_3(workdir, capsys):
    code = main(["chain", "--config", CFG, "--set", "nodes=missing.csv"])
    assert code == 3


def test_missing_config_exits_2(workdir, capsys):
    assert main(["chain", "--config", "nope.cfg"]) == 2


_NUMERIC_KEYS = [
    f.name for f in fields(RunConfig)
    if isinstance(f.default, (int, float)) and not isinstance(f.default, bool)
]


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "--set", "districts=40"],
        ["enumerate", "--set", "districts=40"],
        ["sweep", "--set", "sweep_metric=foo"],
        ["chain", "--set", "seed=-1"],
        ["sweep", "--set", "sweep_replicates=0"],
        ["sweep", "--set", "sweep_caps=-1,2"],
        ["chain", "--set", "max_tree_retries=0"],
        ["tree", "--set", "tree_retry_cap=-1"],
        ["chain", "--set", "acf_max_lag=-1"],
        ["bench", "--set", "bench_iterations=0"],
        ["bench", "--set", "bench_tree_plans=0"],
        ["score", "--set", "assignment="],
    ]
    + [["chain", "--set", f"{key}=abc"] for key in _NUMERIC_KEYS],
    ids=lambda argv: " ".join([argv[0]] + argv[2:]),
)
def test_bad_config_exits_2_with_one_error_line(workdir, capsys, argv):
    assert main([argv[0], "--config", CFG] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ConfigError:")
    assert err.count("\n") == 1


def _not_a_number(text):
    for kind in (int, float):
        try:
            kind(text)
        except ValueError:
            continue
        return False
    return text.strip() != "auto"  # burn_in's word for its default


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_NOT_NUMBERS = st.text(max_size=12).filter(_not_a_number)
_INFINITE = st.sampled_from(["inf", "-inf", "Infinity", "1e999", "-1e999"])


@st.composite
def bad_numeric_setting(draw):
    """A numeric RunConfig key and a value it must refuse."""
    key = draw(st.sampled_from(_NUMERIC_KEYS))
    if isinstance(_DEFAULTS[key], int):  # every int key is >= -1
        values = [_NOT_NUMBERS, st.integers(max_value=-2).map(str),
                  st.integers().map(lambda n: f"{n}.5")]
    elif key == "sweep_extrapolate_cap":  # any finite value, or nan for the largest cap
        values = [_NOT_NUMBERS, _INFINITE]
    else:  # tolerances, sigma and weights are finite and positive or >= 0
        values = [_NOT_NUMBERS, _INFINITE, st.just("nan"),
                  st.floats(max_value=0.0, exclude_max=True, allow_infinity=False).map(repr)]
    return key, draw(st.one_of(values))


@given(bad_numeric_setting(), st.sampled_from(["chain", "tree", "sweep", "bench"]))
@settings(max_examples=150, deadline=None)
def test_bad_numeric_values_keep_the_cli_contract(setting, command):
    key, value = setting
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", os.path.join(GRID4, "chain.cfg"),
                     "--set", f"{key}={value}"])
    assert code in (2, 3, 4)
    assert err.getvalue().startswith("ERROR ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("name", ["nodes.csv", "edges.csv", "assignment.csv"])
def test_short_csv_row_exits_3_with_one_error_line(workdir, capsys, name):
    path = workdir / "tests" / "fixtures" / "grid4" / name
    n_lines = len(path.read_text().splitlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("p0\n")
    assert main(["chain", "--config", CFG]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR BadNumericField:")
    assert f"{name}: row {n_lines + 1}: expected " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("tail, message", [
    pytest.param(b"\xff\xfe", "not UTF-8 text (invalid start byte)", id="not-utf8"),
    pytest.param(b"x" * 200_000 + b"\n", "field larger than field limit", id="huge-cell"),
])
@pytest.mark.parametrize("name", ["nodes.csv", "edges.csv", "assignment.csv"])
def test_unreadable_csv_exits_3_with_one_error_line(workdir, capsys, name, tail, message):
    with open(workdir / "tests" / "fixtures" / "grid4" / name, "ab") as fh:
        fh.write(tail)
    assert main(["chain", "--config", CFG]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR IngestError: tests/fixtures/grid4/{name}: ")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, row, column, value", [
    pytest.param("nodes.csv", 1, "area", "inf", id="area-inf"),
    pytest.param("nodes.csv", 1, "perimeter", "inf", id="perimeter-inf"),
    pytest.param("edges.csv", 2, "shared_perimeter", "nan", id="shared-nan"),
    pytest.param("edges.csv", 2, "shared_perimeter", "inf", id="shared-inf"),
])
@pytest.mark.parametrize("command", ["chain", "score"])
def test_non_finite_geometry_exits_3_with_one_error_line(workdir, capsys, command,
                                                         name, row, column, value):
    # row 1 of nodes.csv is p0; row 2 of edges.csv is the internal edge p0,p4
    path = workdir / "tests" / "fixtures" / "grid4" / name
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[row][rows[0].index(column)] = value
    path.write_text("".join(",".join(cells) + "\n" for cells in rows))
    assert main([command, "--config", CFG]) == 3
    err = capsys.readouterr().err
    expected = "InvalidNodeData: p0:" if name == "nodes.csv" else "InvalidEdge: edge (0, 4):"
    assert err.startswith(f"ERROR {expected}")
    assert err.count("\n") == 1


def test_config_not_utf8_exits_2_with_one_error_line(workdir, capsys):
    with open(CFG, "ab") as fh:
        fh.write(b"# \xff\n")
    assert main(["chain", "--config", CFG]) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR ConfigError: {CFG}: not UTF-8 text (invalid start byte)\n"


def test_chain_invariant_violation_exits_4(workdir, capsys, monkeypatch):
    monkeypatch.setattr(
        "mapchain.chain.bipartition_region",
        lambda graph, subset, *args, **kwargs: (subset[:1], subset[1:]),
    )
    assert main(["chain", "--config", CFG, "--set", "steps=101"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR ChainInvariantViolated:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, setting, value", [
    pytest.param("chain", "steps", 10**15, id="chain-steps"),
    pytest.param("tree", "n_plans", 10**15, id="tree-n_plans"),
    ("chain", "steps", 10**17),
    ("tree", "n_plans", 10**17),
    ("bench", "bench_iterations", 10**17),
    ("bench", "bench_tree_plans", 10**17),
    ("chain", "steps", 10**20 - 1),
    ("chain", "hist_bins", 10**20 - 1),
])
def test_trace_too_big_to_allocate_exits_4(workdir, capsys, command, setting, value):
    # 10**15 trace rows are about 100 PB, more than any address space holds;
    # from 10**17 rows (and 2**59 histogram bins) numpy cannot even address them
    assert main([command, "--config", CFG, "--set", f"{setting}={value}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR MemoryError:")
    assert err.count("\n") == 1


class _InlineExecutor:
    """A stand-in for ProcessPoolExecutor that records ``max_workers`` and
    runs the jobs in this process."""

    opened = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_worker_pool_is_capped_at_the_cpu_count(workdir, monkeypatch):
    monkeypatch.setattr("mapchain.cli.ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _InlineExecutor.opened.clear()
    args = ["chain", "--config", CFG, "--set", "steps=20", "--set", "n_chains=3"]
    assert main(args + ["--set", "workers=5000", "--set", "out_dir=out/capped"]) == 0
    assert _InlineExecutor.opened == [2]
    # chains are seeded by index and merged in order: the pool size changes nothing
    assert main(args + ["--set", "workers=1", "--set", "out_dir=out/serial"]) == 0
    assert (workdir / "out/capped/trace.csv").read_bytes() == (
        workdir / "out/serial/trace.csv"
    ).read_bytes()


# sha256 of what the fixture config's chain and sweep runs write: every byte of
# these files must stay as it is (trace.csv is pinned by its golden file)
_OUTPUT_SHA256 = [
    ("chain", "hist_seats_avg.svg",
     "51b7bca4689821c9749ee5d9a73d01e7b5b634fa691f0e36cfbcd5bf1908c2dd"),
    ("chain", "hist_seats_index.svg",
     "391208acc8eb2248c0068a5b038706f02e2dc6b83193bb72cd630ee3add80a7d"),
    ("chain", "summary.csv", "a12e13f95f2d825612dcfa4e25c4eca42c3c8548a3df4c5f154c17b879b724f7"),
    ("chain", "acf.csv", "7c630947cc0e4bbe6efcf41dacb5f3c1bd4244ebb90911be5e048a6fd40c17d3"),
    ("sweep", "sweep.csv", "7869882e0f387917c22388d3d1d3c22afccc051994200c965e0c5aa4bdbb2e3e"),
    ("sweep", "sweep.svg", "c3b04c6d492cfb001e68a818c764e74e13983300432e6cf6c105bece17f9b41f"),
]


@pytest.mark.parametrize("command, name, sha256", _OUTPUT_SHA256,
                         ids=[f"{command}-{name}" for command, name, _ in _OUTPUT_SHA256])
def test_output_bytes_are_pinned(workdir, command, name, sha256):
    assert main([command, "--config", CFG, "--set", "out_dir=out/pinned"]) == 0
    written = (workdir / "out" / "pinned" / name).read_bytes()
    assert hashlib.sha256(written).hexdigest() == sha256


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats serves only the oracle's naive_score, and loading it takes
    # longer than loading the rest of the program
    src = os.path.dirname(os.path.dirname(mapchain.__file__))
    code = "import sys, mapchain.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def _append_column(path, name, value):
    """Add a column ``name`` holding ``value`` on every row to the CSV ``path``."""
    header, *rows = path.read_text().splitlines()
    path.write_text("".join(f"{row},{cell}\n" for row, cell in
                            zip([header, *rows], [name] + [value] * len(rows))))


@pytest.mark.parametrize("name, column", [
    ("nodes.csv", "population"),
    ("nodes.csv", "PRES_R"),
    ("edges.csv", "dst"),
    ("edges.csv", "shared_perimeter"),
    ("assignment.csv", "district"),
])
def test_repeated_column_exits_3_with_one_error_line(workdir, capsys, name, column):
    _append_column(workdir / "tests" / "fixtures" / "grid4" / name, column, "5")
    assert main(["score", "--config", CFG]) == 3
    err = capsys.readouterr().err
    assert err == (f"ERROR IngestError: tests/fixtures/grid4/{name}: "
                   f"column {column!r} appears more than once\n")


def test_trailing_blank_columns_are_read(workdir):
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/plain"]) == 0
    for name in ("nodes.csv", "edges.csv", "assignment.csv"):
        path = workdir / "tests" / "fixtures" / "grid4" / name
        path.write_text("".join(f"{line},,\n" for line in path.read_text().splitlines()))
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/blank"]) == 0
    assert (workdir / "out/blank/trace.csv").read_bytes() == (
        workdir / "out/plain/trace.csv"
    ).read_bytes()


def _uniform_votes(workdir):
    """A copy of the fixture's nodes.csv in which every precinct votes 60:40,
    so every plan wins every seat; returns its path."""
    header, *rows = (workdir / "tests/fixtures/grid4/nodes.csv").read_text().splitlines()
    votes = ",".join(["60", "40"] * 2)
    (workdir / "uniform.csv").write_text(
        "".join(f"{line}\n" for line in [header] + [row.rsplit(",", 4)[0] + "," + votes
                                                   for row in rows])
    )
    return "uniform.csv"


@pytest.mark.parametrize("rerun", ["no lags", "constant series"])
def test_a_run_without_acf_removes_the_earlier_acf_csv(workdir, capsys, rerun):
    assert main(["chain", "--config", CFG]) == 0
    assert (workdir / "out/grid4/acf.csv").exists()
    settings = (["acf_max_lag=0", "seed=9"] if rerun == "no lags"
                else [f"nodes={_uniform_votes(workdir)}"])
    assert main(["chain", "--config", CFG] + [arg for s in settings for arg in ("--set", s)]) == 0
    assert not (workdir / "out/grid4/acf.csv").exists()
    assert (workdir / "out/grid4/trace.csv").exists()
    if rerun == "constant series":
        assert "seats_avg series is constant; skipping acf.csv" in capsys.readouterr().out


def test_set_without_equals_sign_exits_2(workdir, capsys):
    assert main(["chain", "--config", CFG, "--set", "steps"]) == 2
    assert capsys.readouterr().err == "ERROR ConfigError: --set expects key=value, got 'steps'\n"


def test_config_line_without_equals_sign_exits_2(workdir, capsys):
    with open(CFG, "a", encoding="utf-8") as fh:
        fh.write("steps 10\n")
    with open(CFG, encoding="utf-8") as fh:
        n_lines = len(fh.read().splitlines())
    assert main(["chain", "--config", CFG]) == 2
    assert capsys.readouterr().err == (
        f"ERROR ConfigError: {CFG}: line {n_lines}: expected key = value\n"
    )


def test_sweep_needs_two_distinct_caps(workdir, capsys):
    assert main(["sweep", "--config", CFG, "--set", "sweep_caps=2,2"]) == 2
    assert capsys.readouterr().err == (
        "ERROR ConfigError: sweep_caps needs at least 2 distinct caps\n"
    )


def test_sweep_extrapolates_to_the_configured_cap(workdir):
    assert main(["sweep", "--config", CFG, "--set", "steps=20", "--set", "burn_in=2",
                 "--set", "n_plans=8", "--set", "sweep_replicates=1",
                 "--set", "sweep_extrapolate_cap=10", "--set", "out_dir=out/ex"]) == 0
    rows = [row.split(",") for row in
            (workdir / "out/ex/sweep.csv").read_text().splitlines()]
    assert [row[0] for row in rows] == ["cap", "2", "3", "4", "10.0"]
    assert rows[-1][2:] == ["", "", "1"]
    # the fitted row lies on the least-squares line through the observed points
    slope, intercept = np.polyfit([float(r[0]) for r in rows[1:-1]],
                                  [float(r[1]) for r in rows[1:-1]], 1)
    assert float(rows[-1][1]) == pytest.approx(intercept + slope * 10)


def _accept_flags(path):
    return [row.split(",")[1] for row in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("weight", ["gibbs_weight_county", "gibbs_weight_muni"])
def test_gibbs_chain_with_one_split_weight(workdir, capsys, weight):
    assert main(["chain", "--config", CFG, "--set", "out_dir=out/free"]) == 0
    capsys.readouterr()
    assert main(["chain", "--config", CFG, "--set", "mode=gibbs",
                 "--set", "gibbs_weight_district_county=0", "--set", f"{weight}=3",
                 "--set", "out_dir=out/gibbs"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("proposed="))
    counters = dict(cell.split("=") for cell in line.split())
    assert int(counters["rejected_by_constraint"]) > 0
    assert _accept_flags(workdir / "out/gibbs/trace.csv") != _accept_flags(
        workdir / "out/free/trace.csv"
    )


def test_vote_column_without_its_pair_exits_3(workdir, capsys):
    path = workdir / "tests" / "fixtures" / "grid4" / "nodes.csv"
    path.write_text(path.read_text().replace("PRES_D", "PRES_X", 1))
    assert main(["score", "--config", CFG]) == 3
    assert capsys.readouterr().err == "ERROR MissingColumn: missing required column: 'PRES_D'\n"


def test_node_file_without_contests_exits_2(workdir, capsys):
    path = workdir / "tests" / "fixtures" / "grid4" / "nodes.csv"
    path.write_text("".join(line.rsplit(",", 4)[0] + "\n"
                            for line in path.read_text().splitlines()))
    assert main(["score", "--config", CFG, "--set", "contests="]) == 2
    assert capsys.readouterr().err == "ERROR ConfigError: node file declares no contests\n"


def test_edge_pair_choice_on_a_one_district_plan_exits_4(workdir, capsys):
    path = workdir / "one.csv"
    path.write_text("precinct_id,district\n" + "".join(f"p{i},A\n" for i in range(16)))
    assert main(["chain", "--config", CFG, "--set", "assignment=one.csv",
                 "--set", "pair_selection=edges"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR NoAdjacentDistrictPair:") and err.count("\n") == 1
