import os

import numpy as np
import pytest

from mapchain import errors
from mapchain.chain import run_chain
from mapchain.constraints import ConstraintGate
from mapchain.graph import canonical_form
from mapchain.io import (
    TRACE_COLUMNS,
    RunConfig,
    histogram_counts,
    read_assignment,
    read_config,
    read_edges,
    read_graph,
    read_nodes,
    write_assignment,
    write_edges,
    write_histogram_svg,
    write_nodes,
    write_trace,
)
from mapchain.metrics import MetricsConfig
from mapchain.synth import band_plan, grid4_graph

GRID4 = os.path.join(os.path.dirname(__file__), "fixtures", "grid4")
GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden")


def test_read_nodes_single_row(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,PRES20_D,PRES20_R\n"
        "p1,10,C1,M1,1.0,4.0,6,4\n"
    )
    nodes, elections = read_nodes(path)
    assert len(nodes) == 1
    assert nodes[0].population == 10
    contest = elections.get("PRES20")
    assert contest.dem[0] == 6 and contest.rep[0] == 4


def test_read_nodes_missing_population(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("precinct_id,county_id,muni_id,area,perimeter\np1,C1,M1,1,4\n")
    with pytest.raises(errors.MissingColumn) as err:
        read_nodes(path)
    assert err.value.column == "population"


def test_read_nodes_missing_vote_pair(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,PRES_D\n"
        "p1,10,C1,M1,1.0,4.0,6\n"
    )
    with pytest.raises(errors.MissingColumn) as err:
        read_nodes(path)
    assert err.value.column == "PRES_R"


def test_read_nodes_non_numeric_votes(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,PRES_D,PRES_R\n"
        "p1,10,C1,M1,1.0,4.0,six,4\n"
    )
    with pytest.raises(errors.NonNumericVotes, match="row 2.*PRES_D"):
        read_nodes(path)


def test_read_nodes_empty_file(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("")
    with pytest.raises(errors.EmptyFile):
        read_nodes(path)
    path.write_text("precinct_id,population,county_id,muni_id,area,perimeter\n")
    with pytest.raises(errors.EmptyFile):
        read_nodes(path)


def test_read_missing_file_is_ingest_error(tmp_path):
    with pytest.raises(errors.MissingFile, match="nodes.csv"):
        read_nodes(tmp_path / "nodes.csv")


def test_read_grid4_fixture():
    nodes, elections = read_nodes(os.path.join(GRID4, "nodes.csv"))
    assert len(nodes) == 16
    assert set(elections.names()) == {"PRES", "SEN"}
    graph = read_graph(
        os.path.join(GRID4, "nodes.csv"), os.path.join(GRID4, "edges.csv")
    )
    assert graph.n == 16 and graph.n_edges == 24


def test_read_edges_cases(tmp_path):
    index = {"p1": 0, "p2": 1}
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,shared_perimeter\np1,p2,1.0\n")
    edge_a, edge_b, shared = read_edges(path, index)
    assert (edge_a.tolist(), edge_b.tolist(), shared.tolist()) == ([0], [1], [1.0])
    # default shared perimeter
    path.write_text("src,dst\np1,p2\n")
    assert read_edges(path, index)[2][0] == 1.0
    # duplicate unordered pair
    path.write_text("src,dst\np1,p2\np2,p1\n")
    with pytest.raises(errors.DuplicateEdge):
        read_edges(path, index)
    # unknown precinct
    path.write_text("src,dst\np1,p9\n")
    with pytest.raises(errors.DanglingEdge):
        read_edges(path, index)


@pytest.mark.parametrize("rows, error, message", [
    # the first bad row wins, whatever its kind
    (["p0,p1,1", "p1,p0,1", "p0,p9,1", "p1,p2,x"], errors.DuplicateEdge,
     "row 3: duplicate edge ('p0', 'p1')"),
    (["p0,p1,1", "p9,p1,1", "p1,p0,1", "p1,p2,x"], errors.DanglingEdge,
     "row 3: unknown precinct 'p9'"),
    (["p0,p1,1", "p1,p8,1", "p9,p1,1"], errors.DanglingEdge,
     "row 3: unknown precinct 'p8'"),
    (["p0,p1,1", "p1,p2,x", "p1,p0,1", "p0,p9,1"], errors.BadNumericField,
     "row 3, column 'shared_perimeter': not numeric: 'x'"),
    # within one row: the number, then the duplicate, then the precinct
    (["p0,p1,1", "p9,p1,x"], errors.BadNumericField, "row 3, column"),
    (["p2,p1,1", "p1,p2,y"], errors.BadNumericField, "row 3, column"),
])
def test_read_edges_reports_the_first_bad_row(tmp_path, rows, error, message):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,shared_perimeter\n" + "\n".join(rows) + "\n")
    with pytest.raises(error) as err:
        read_edges(path, {"p0": 0, "p1": 1, "p2": 2})
    assert str(err.value).startswith(f"{path}: {message}")


def test_read_assignment_roundtrip_and_relabel(tmp_path):
    graph = grid4_graph()
    path = tmp_path / "assignment.csv"
    rows = ["precinct_id,district"]
    # labels {3, 7} must densify to {0, 1} with the mapping recorded
    for i in range(16):
        rows.append(f"p{i},{3 if i < 8 else 7}")
    path.write_text("\n".join(rows) + "\n")
    plan, names = read_assignment(path, graph)
    assert plan.k == 2
    assert sorted(set(plan.assignment.tolist())) == [0, 1]
    assert names == {0: "3", 1: "7"}


def test_read_assignment_missing_and_unknown(tmp_path):
    graph = grid4_graph()
    path = tmp_path / "assignment.csv"
    rows = ["precinct_id,district"] + [f"p{i},A" for i in range(15)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(errors.MissingPrecinct):
        read_assignment(path, graph)
    rows = ["precinct_id,district"] + [f"p{i},A" for i in range(16)] + ["zz,B"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(errors.UnknownPrecinct):
        read_assignment(path, graph)


def test_graph_roundtrip_exact(tmp_path):
    graph = grid4_graph()
    write_nodes(graph, tmp_path / "n.csv")
    write_edges(graph, tmp_path / "e.csv")
    again = read_graph(tmp_path / "n.csv", tmp_path / "e.csv")
    assert again.precinct_ids() == graph.precinct_ids()
    assert again.populations.tolist() == graph.populations.tolist()
    assert again.areas.tolist() == graph.areas.tolist()
    for name in ("edge_a", "edge_b", "edge_shared", "county_codes"):
        assert getattr(again, name).tolist() == getattr(graph, name).tolist()
    for name in graph.elections.names():
        assert np.array_equal(
            again.elections.get(name).dem, graph.elections.get(name).dem
        )
    # write once more: byte-identical files
    write_nodes(again, tmp_path / "n2.csv")
    assert (tmp_path / "n2.csv").read_bytes() == (tmp_path / "n.csv").read_bytes()


def test_plan_roundtrip_exact(tmp_path):
    graph = grid4_graph()
    plan = band_plan(4, 4, 4)
    write_assignment(plan, graph, tmp_path / "a.csv")
    again, names = read_assignment(tmp_path / "a.csv", graph)
    assert canonical_form(again) == canonical_form(plan)


def test_trace_golden_file(tmp_path):
    graph = grid4_graph()
    trace = run_chain(
        graph, band_plan(4, 4, 4), 30, 0.01, ConstraintGate.permissive(),
        MetricsConfig(("PRES", "SEN")), np.random.default_rng(7),
    )
    out = tmp_path / "trace.csv"
    write_trace(trace, out)
    golden = open(os.path.join(GOLDEN, "trace_seed7.csv"), "rb").read()
    assert out.read_bytes() == golden


def test_trace_columns_header(tmp_path):
    graph = grid4_graph()
    trace = run_chain(
        graph, band_plan(4, 4, 4), 3, 0.01, ConstraintGate.permissive(),
        MetricsConfig(("PRES",)), np.random.default_rng(0),
    )
    out = tmp_path / "t.csv"
    write_trace(trace, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 4  # header + 3 steps


def test_histogram_svg_bars_and_reference(tmp_path):
    out = tmp_path / "h.svg"
    write_histogram_svg([1.0, 1.0, 2.0], 2, out, reference_line=1.5)
    text = out.read_text()
    assert text.count('<rect class="bar"') == 2
    assert 'data-count="2"' in text and 'data-count="1"' in text
    assert text.count('<line class="refline"') == 1


def test_histogram_counts_preserved(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=1000)
    counts, _ = histogram_counts(values, 17)
    assert counts.sum() == 1000
    out = tmp_path / "h.svg"
    write_histogram_svg(values, 17, out)
    text = out.read_text()
    total = sum(
        int(part.split('"')[0])
        for part in text.split('data-count="')[1:]
    )
    assert total == 1000


def test_histogram_empty_input(tmp_path):
    with pytest.raises(errors.EmptyInput):
        write_histogram_svg([], 4, tmp_path / "x.svg")


def test_config_parsing_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "nodes = n.csv\n"
        "edges = e.csv\n"
        "steps = 50\n"
        "pop_tolerance = 0.05\n"
        "contests = PRES, SEN\n"
        "burn_in = auto\n"
    )
    cfg = read_config(path, overrides={"steps": "75"})
    assert cfg.steps == 75  # flag wins
    assert cfg.pop_tolerance == 0.05
    assert cfg.contests == ("PRES", "SEN")
    assert cfg.burn_in == -1


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nodes = n.csv\nbogus = 1\n")
    with pytest.raises(errors.ConfigError, match="bogus"):
        read_config(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("steps", "0"),
        ("pop_tolerance", "0"),
        ("pop_tolerance", "1.5"),
        ("county_cap", "-1"),
        ("muni_cap", "-2"),
        ("thinning", "0"),
        ("mode", "sometimes"),
        ("gibbs_weight_county", "-0.1"),
        ("n_chains", "0"),
        ("hist_bins", "0"),
        ("fractional_sigma", "0.7"),
        ("tree_method", "bogus"),
        ("pair_selection", "bogus"),
    ],
)
def test_config_rejects_out_of_range(tmp_path, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"nodes = n.csv\nedges = e.csv\n{key} = {value}\n")
    with pytest.raises(errors.ConfigError):
        read_config(path)


def test_config_validates_contests_against_graph():
    graph = grid4_graph()
    cfg = RunConfig(contests=("PRES", "NOPE"))
    with pytest.raises(errors.ConfigError, match="NOPE"):
        cfg.validate_contests(graph)
    assert RunConfig(contests=()).validate_contests(graph) == ("PRES", "SEN")
