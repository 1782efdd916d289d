import os
import shutil
from dataclasses import fields

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapchain.cli import main
from mapchain.io import RunConfig

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


def test_chain_invariant_violation_exits_4(workdir, capsys, monkeypatch):
    monkeypatch.setattr(
        "mapchain.chain.bipartition_region",
        lambda graph, subset, *args, **kwargs: (subset[:1], subset[1:]),
    )
    assert main(["chain", "--config", CFG, "--set", "steps=101"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ERROR ChainInvariantViolated:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, setting", [("chain", "steps"), ("tree", "n_plans")])
def test_trace_too_big_to_allocate_exits_4(workdir, capsys, command, setting):
    # 10**15 trace rows are about 100 PB, more than any address space holds
    assert main([command, "--config", CFG, "--set", f"{setting}={10**15}"]) == 4
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
