import csv
import dataclasses
import io
import os
import re
import runpy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import io_reference
from io_reference import read_columns as reference_read_columns

from mapchain import errors
from mapchain.chain import run_chain
from mapchain.constraints import ConstraintGate, split_report
from mapchain.graph import Plan, canonical_form
from mapchain.io import (
    TRACE_COLUMNS,
    RunConfig,
    _decimal_cells,
    _read_columns,
    _split_columns,
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
from mapchain.metrics import MetricsConfig, score_plan
from mapchain.synth import band_plan, grid4_graph, grid_graph

GRID4 = os.path.join(os.path.dirname(__file__), "fixtures", "grid4")
GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden")


def test_read_nodes_single_row(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,PRES20_D,PRES20_R\n"
        "p1,10,C1,M1,1.0,4.0,6,4\n"
    )
    columns, elections = read_nodes(path)
    assert columns["precinct_id"] == ["p1"]
    assert columns["population"] == [10]
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
    columns, elections = read_nodes(os.path.join(GRID4, "nodes.csv"))
    assert len(columns["precinct_id"]) == 16
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


@pytest.mark.parametrize("rows, error, message", [
    # the first bad row wins, whatever its kind
    (["p0,1,C,M,1,4,5,5,5,5", "p1,1,C,M,x,4,5,5,5,5", "p2,y,C,M,1,4,5,5,5,5"],
     errors.BadNumericField, "row 3, column 'area': not numeric: 'x'"),
    (["p0,1,C,M,1,4,5,5,5,5", "p1,1,C,M,1,4,5,-1,5,5", "p2,1,C,M,1,4,5,5,z,5"],
     errors.NonNumericVotes, "row 3: negative votes in contest 'A'"),
    (["p0,1,C,M,1,4,5,5,5,5", "p1,1,C,M,1,4,5,5,5,5", "p2,1,C,M,1,4,5,5,5, 2.5 "],
     errors.NonNumericVotes, "row 4, column 'B_R': not numeric: '2.5'"),
    # within one row: population, area, perimeter, then per contest D, R and the sign
    (["p0,q,C,M,x,y,5,5,5,5"], errors.BadNumericField, "row 2, column 'population'"),
    (["p0,1,C,M,1,y,a,5,5,5"], errors.BadNumericField, "row 2, column 'perimeter'"),
    (["p0,1,C,M,1,4,-5,r,5,5"], errors.NonNumericVotes, "row 2, column 'A_R'"),
    (["p0,1,C,M,1,4,-5,5,s,5"], errors.NonNumericVotes, "row 2: negative votes in contest 'A'"),
    (["p0,1,C,M,1,4,5,5,-1,t"], errors.NonNumericVotes, "row 2, column 'B_R'"),
])
def test_read_nodes_reports_the_first_bad_cell(tmp_path, rows, error, message):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,A_D,A_R,B_D,B_R\n"
        + "\n".join(rows) + "\n"
    )
    with pytest.raises(error) as err:
        read_nodes(path)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("cells, error, column", [
    ("99999999999999999999,5,5,5", errors.NonNumericVotes, "A_D"),
    ("5,5,5,-9223372036854775809", errors.NonNumericVotes, "B_R"),
])
def test_read_nodes_refuses_counts_beyond_int64(tmp_path, cells, error, column):
    path = tmp_path / "nodes.csv"
    path.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,A_D,A_R,B_D,B_R\n"
        f"p0,1,C,M,1,4,5,5,5,5\np1,1,C,M,1,4,{cells}\n"
    )
    with pytest.raises(error, match=f"row 3, column '{column}': out of the 64-bit integer range"):
        read_nodes(path)


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


@pytest.mark.parametrize("rows, error, message", [
    # the earlier of an unknown precinct and a repeated one is reported
    (["p0,A", "p1,A", "zz,B", "p0,B"], errors.UnknownPrecinct, "row 4: unknown precinct 'zz'"),
    (["p0,A", "p1,A", "p0,B", "zz,B"], errors.DuplicatePrecinctId,
     "row 4: precinct 'p0' assigned twice"),
    (["p1,A", "p0,A", "p2,B", "p0,B", "p1,B"], errors.DuplicatePrecinctId,
     "row 5: precinct 'p0' assigned twice"),
    (["zz,A", "yy,A"], errors.UnknownPrecinct, "row 2: unknown precinct 'zz'"),
])
def test_read_assignment_reports_the_first_bad_row(tmp_path, rows, error, message):
    path = tmp_path / "assignment.csv"
    path.write_text("precinct_id,district\n" + "\n".join(rows) + "\n")
    with pytest.raises(error) as err:
        read_assignment(path, grid4_graph())
    assert str(err.value) == f"{path}: {message}"


def test_read_assignment_lists_the_first_missing_precincts(tmp_path):
    path = tmp_path / "assignment.csv"
    path.write_text("precinct_id,district\np3,A\n")
    with pytest.raises(errors.MissingPrecinct) as err:
        read_assignment(path, grid4_graph())
    missing = [f"p{i}" for i in range(16) if i != 3]
    assert str(err.value) == (
        f"{path}: precincts missing from assignment: {missing[:8]}..."
    )


_FIELD_LIMIT = csv.field_size_limit()
_ONE_IN_FIVE = st.sampled_from([False, False, False, False, True])


@st.composite
def csv_files(draw):
    """The bytes of a CSV file: a rectangle of plain cells, then a few of the
    things that make ``csv`` read text otherwise than a split at every comma
    and line break would."""
    n = draw(st.integers(1, 4))
    name = st.text(alphabet="ab1", min_size=1, max_size=2)
    cell = st.text(alphabet="ab1 \t\x00", max_size=3)
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6]))
    rows = draw(st.lists(
        st.tuples(name, st.lists(cell, min_size=n - 1, max_size=n - 1)),
        min_size=n_rows, max_size=n_rows,
    ))
    rows = [[first, *rest] for first, rest in rows]
    for fault in draw(st.lists(st.sampled_from(
        ["quoted", "ragged", "blank row", "blank first cell", "limit"]
    ), max_size=2 if rows else 0)):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i])))
        if fault == "quoted":  # commas, line breaks and doubled quotes inside quotes
            inner = draw(st.text(alphabet='a ,\n\r"', max_size=4))
            rows[i][j:j + 1] = ['"' + inner.replace('"', '""') + '"']
        elif fault == "ragged":
            rows[i] = rows[i][:j] if draw(st.booleans()) else rows[i] + ["x"] * j
        elif fault == "blank row":
            rows.insert(i, draw(st.sampled_from([[], [""], [" "], ["", ""], [" ", "\t", ""]])))
        elif fault == "blank first cell":
            rows[i][:1] = [draw(st.sampled_from(["", " ", "\t"]))]
        else:  # a cell at the csv field limit, one under or one over it
            rows[i][j:j + 1] = ["y" * (_FIELD_LIMIT + draw(st.integers(-1, 1)))]
    lone_cr = draw(_ONE_IN_FIVE)
    ending = st.sampled_from(["\n", "\r\n", "\r"] if lone_cr else ["\n", "\r\n"])
    text = "".join(",".join(row) + draw(ending) for row in rows)
    if not draw(st.booleans()):  # no line break after the last line
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text  # a byte order mark
    data = text.encode("utf-8")
    if draw(_ONE_IN_FIVE):  # a byte that is not UTF-8, or a cut-off character
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[i:]
    return data


def _outcome(read, path, required, rows_required):
    try:
        return read(path, required, rows_required)
    except errors.MapchainError as e:
        return type(e), str(e)


def _stripped_reference_read_columns(path, required, rows_required):
    """The ``csv`` reference with every cell stripped, as the column reader
    returns its cells."""
    header, columns = reference_read_columns(path, required, rows_required)
    return header, {name: tuple(map(str.strip, cells)) for name, cells in columns.items()}


@given(csv_files(), st.lists(st.sampled_from(["a", "b", "1"]), max_size=2), st.booleans())
@settings(max_examples=300, deadline=None)
def test_column_reader_matches_the_csv_reader(tmp_path_factory, data, required, rows_required):
    """Whichever way a file is read, the columns, or the error class and
    message, are those that reading every file through ``csv`` gives."""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(data)
    assert _outcome(_read_columns, path, required, rows_required) == _outcome(
        _stripped_reference_read_columns, path, required, rows_required
    )


@pytest.mark.parametrize("cell", [" p1", "p1\t", "\x0bp1\x0c", "\x1cp1\x1f", "\u00a0p1\u2003"])
@pytest.mark.parametrize("quoted", [False, True])
def test_column_reader_strips_every_cell_once(tmp_path, cell, quoted):
    # whitespace that str.strip removes, ASCII or not, on the split path and
    # (quoted) through csv; the other cells hold none, so only the check for
    # strippable bytes decides whether the split path strips
    text = f'a,b\n"{cell}",x\n' if quoted else f"a,b\n{cell},x\n"
    path = tmp_path / "cells.csv"
    path.write_text(text, encoding="utf-8")
    assert _read_columns(path, ("a",)) == (["a", "b"], {"a": ("p1",), "b": ("x",)})


def _bits(values):
    """The IEEE-754 bits of each float in ``values``: -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _every_column_decimal(name):
    return _decimal_cells


# (cell, whether the byte path reads it): digits[.digits] of at most 17 bytes
# whose digits M are at most 2**53, against the cells that it leaves to float()
_DECIMAL_EDGES = [
    ("0.0", True), ("007.50", True), ("5", True), ("123456789012345", True),
    ("1.23456789012345", True), ("1234567890123456", True), ("9007199254740992", True),
    ("9007199254740993", False), ("0.1234567890123456", False),
    ("12345678901234567", False), ("1.2345678901234567", False),
    ("5.", False), (".5", False), ("1.2.3", False), ("1e3", False), ("+1.5", False),
    ("-0.0", False), ("1_0", False), (" 1.5", False), ("nan", False), ("inf", False),
    ("", False),
]
_LINE_ENDS = {"LF": ["\n"], "CRLF": ["\r\n"], "mixed": ["\n", "\r\n"], "lone CR": ["\r"]}


@pytest.mark.parametrize("cell, parsed", _DECIMAL_EDGES)
@pytest.mark.parametrize("ends", sorted(_LINE_ENDS))
@pytest.mark.parametrize("final_break", [True, False])
def test_decimal_columns_match_the_csv_reader(tmp_path, cell, parsed, ends, final_break):
    """A column parsed from its bytes holds float(cell) of the ``csv``
    reference's cells, bit for bit; a column the byte path leaves (or a file
    that csv reads) holds the reference's cells; errors match in class and
    message. Column a has the cell mid-line, column b at each line's end."""
    lines = ["a,b,c", f"{cell},1.5,3.0", f"0.25,{cell},3.0"]
    breaks = _LINE_ENDS[ends]
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    path = tmp_path / "decimals.csv"
    path.write_bytes((text if final_break else text.rstrip("\r\n")).encode("utf-8"))
    got = _outcome(lambda *args: _read_columns(*args, parse=_every_column_decimal), path, (), True)
    want = _outcome(_stripped_reference_read_columns, path, (), True)
    assert isinstance(got[1], dict) and isinstance(want[1], dict)
    assert got[0] == want[0]
    for name, column in got[1].items():
        if isinstance(column, np.ndarray):
            assert column.dtype == np.float64
            assert _bits(column) == _bits([float(c) for c in want[1][name]])
        else:
            assert column == want[1][name]
    split = ends != "lone CR" and cell != ""  # csv reads a lone CR and a blank first cell
    assert isinstance(got[1]["a"], np.ndarray) == isinstance(got[1]["b"], np.ndarray) == (
        split and parsed)
    assert isinstance(got[1]["c"], np.ndarray) == split


@pytest.mark.parametrize("text", ["a\n1\r2\n", "a,b\n1\r,2\n", "a,b\r\n1,2\r\r\n", "a\n1\n2\r"])
def test_a_lone_cr_is_a_line_break_as_csv_reads_it(tmp_path, text):
    # the split path would keep these CRs inside a cell; csv ends a line there
    path = tmp_path / "lone_cr.csv"
    path.write_bytes(text.encode("ascii"))
    assert _outcome(_read_columns, path, (), False) == _outcome(
        _stripped_reference_read_columns, path, (), False
    )


@st.composite
def plain_decimals(draw):
    """Up to 17 digits after up to 3 leading zeros, with or without a point
    anywhere among them (so also "5." and ".5")."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=17))
    cell = "0" * draw(st.integers(0, 3)) + digits
    if draw(st.booleans()):
        at = draw(st.integers(0, len(cell)))
        cell = cell[:at] + "." + cell[at:]
    return cell


@given(st.lists(st.one_of(plain_decimals(), st.floats(0, 1e20).map(repr)), min_size=1,
                max_size=4),
       st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=500, deadline=None)
def test_decimal_cells_are_float_bit_for_bit_or_left_to_float(cells, line_break):
    data = ("x" + line_break + "".join(cell + line_break for cell in cells)).encode("ascii")
    header, columns = _split_columns(data, _every_column_decimal)
    column = columns["x"]
    if isinstance(column, np.ndarray):
        assert _bits(column) == _bits([float(cell) for cell in cells])
    else:
        assert column == tuple(cells)


def test_county_ids_differing_in_a_trailing_nul_are_two_counties(tmp_path):
    # a numpy string array drops trailing NUL characters, so "C" and "C\x00"
    # were coded as one county, split between the two districts
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(
        "precinct_id,population,county_id,muni_id,area,perimeter,E_D,E_R\n"
        + "".join(f"p{i},1,{county},M,1.0,4.0,{i + 1},1\n"
                  for i, county in enumerate(["C", "C", "C\x00", "C\x00"])),
        encoding="utf-8",
    )
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\np0,p1\np1,p2\np2,p3\n", encoding="utf-8")
    graph = read_graph(nodes, edges)
    assert graph.county_names == ("C", "C\x00")
    assert graph.county_codes.tolist() == [0, 0, 1, 1]
    plan = Plan([0, 0, 1, 1], 2)
    assert split_report(graph, plan).county_splits == 0
    assert score_plan(graph, plan, MetricsConfig(("E",))).county_splits == 0


_SIX = grid_graph(2, 3)  # precincts p0..p5
_UNKNOWN = st.sampled_from(["p9", "zz"])


@st.composite
def edge_files(draw):
    """The text of an edges.csv over p0..p5 with faults planted in its rows:
    unknown precincts at either end, repeated pairs in either order, and bad
    and blank shared_perimeter cells; the column itself may be absent."""
    number = st.sampled_from(["1", "0.5", " 2 ", "1e400", "-1", "-0.0", "007.50", "5.", "0.1"])
    rows = draw(st.lists(st.lists(st.sampled_from(_SIX.precinct_ids), min_size=2, max_size=2)
                         .map(lambda pair: pair + ["1"]), max_size=6))
    for row in rows:
        row[2] = draw(number)
    for fault in draw(st.lists(st.sampled_from(
        ["unknown", "repeat", "bad number", "blank number"]
    ), max_size=3 if rows else 0)):
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "unknown":
            rows[i][draw(st.integers(0, 1))] = draw(_UNKNOWN)
        elif fault == "repeat":
            pair = rows[i][:2] if draw(st.booleans()) else rows[i][1::-1]
            rows.insert(draw(st.integers(i + 1, len(rows))), pair + [draw(number)])
        elif fault == "bad number":
            rows[i][2] = draw(st.sampled_from(["x", "1..2", " -"]))
        else:
            rows[i][2] = draw(st.sampled_from(["", " ", "\t"]))
    width = 3 if draw(st.booleans()) else 2
    return "".join(",".join(row[:width]) + "\n"
                   for row in [["src", "dst", "shared_perimeter"]] + rows)


@st.composite
def assignment_files(draw):
    """The text of an assignment.csv over p0..p5 with faults planted in its
    rows: unknown precincts, repeated ones and absent ones. Its district
    labels are words, numbers, or numbers some with leading zeros ("7" and
    "07" are two districts)."""
    labels = draw(st.sampled_from([["A", "B", " C "], ["0", "7", "12"], ["7", "07", "0"]]))
    rows = [[pid, draw(st.sampled_from(labels))]
            for pid in draw(st.permutations(_SIX.precinct_ids))]
    for fault in draw(st.lists(st.sampled_from(["unknown", "repeat", "absent"]), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "unknown":
            rows.insert(i, [draw(_UNKNOWN), "A"])
        elif fault == "repeat":
            rows.insert(draw(st.integers(i + 1, len(rows))), [rows[i][0], "B"])
        elif len(rows) > 1:
            del rows[i]
    return "".join(",".join(row) + "\n" for row in [["precinct_id", "district"]] + rows)


def _reader_outcome(read, path, *args):
    """What ``read`` returns, as plain values, or the class and message it raises."""
    try:
        result = read(path, *args)
    except errors.MapchainError as e:
        return type(e), str(e)
    if isinstance(result[0], np.ndarray):
        return [(array.dtype, _bits(array) if array.dtype == np.float64 else array.tolist())
                for array in result]
    plan, names = result
    return plan.k, plan.assignment.tolist(), names


@given(edge_files())
@settings(max_examples=300, deadline=None)
def test_edge_reader_matches_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "edges.csv"
    path.write_text(text)
    assert _reader_outcome(read_edges, path, _SIX.node_index) == _reader_outcome(
        io_reference.read_edges, path, _SIX.node_index
    )


@given(assignment_files())
@settings(max_examples=300, deadline=None)
def test_assignment_reader_matches_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "assignment.csv"
    path.write_text(text)
    assert _reader_outcome(read_assignment, path, _SIX) == _reader_outcome(
        io_reference.read_assignment, path, _SIX
    )


_INT_CELLS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from([
        "0", "007", "000000000000000000", "999999999999999999", "100000000000000000",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "0009223372036854775807", "99999999999999999999",
        "+7", "-3", "-0", " 7", "7 ", "\t12", " 5\t", "1_000", "\u0663", "\u00b2", "",
    ]),
)


@st.composite
def node_files(draw):
    """The bytes of a nodes.csv whose integer cells mix plain digits with the
    cells ``int()`` reads otherwise or refuses, with ids in multi-byte UTF-8,
    columns in any order, LF or CRLF line ends and no final line break."""
    header = list(draw(st.permutations(
        ["precinct_id", "population", "county_id", "muni_id", "area", "perimeter",
         "A_D", "A_R", "B_D", "B_R"])))
    ids = st.sampled_from(["p0", "p1", "\u00e91", "\u533a\u57df", "\u00df9"])
    cells = {"precinct_id": ids, "county_id": st.sampled_from(["C", "\u00c7"]),
             "muni_id": st.just("M"), "area": st.sampled_from(["1.0", " 2.5", "3", "-0.0", ".5"]),
             "perimeter": st.sampled_from(["4.0", "0.5", "0.1", "007.50", "1.2345678901234567"])}
    rows = [",".join(draw(cells.get(name, _INT_CELLS)) for name in header)
            for _ in range(draw(st.integers(1, 5)))]
    text = draw(st.sampled_from(["\n", "\r\n"])).join([",".join(header)] + rows)
    return (text + draw(st.sampled_from(["", "\n", "\r\n"]))).encode("utf-8")


def _nodes_outcome(read, path):
    """The columns and contests ``read`` returns, as dtypes and plain values,
    or the class and message it raises."""
    try:
        columns, elections = read(path)
    except errors.MapchainError as e:
        return type(e), str(e)
    plain = {name: (values.dtype, _bits(values) if values.dtype == np.float64 else values.tolist())
             if isinstance(values, np.ndarray) else values for name, values in columns.items()}
    return plain, [(c.name, c.dem.dtype, c.dem.tolist(), c.rep.dtype, c.rep.tolist())
                   for c in elections]


@given(node_files())
@settings(max_examples=300, deadline=None)
def test_node_reader_matches_the_reference(tmp_path_factory, data):
    """Integer columns parsed from their bytes read as every cell through
    ``int()`` does: the same arrays, or the same first bad row."""
    path = tmp_path_factory.getbasetemp() / "nodes.csv"
    path.write_bytes(data)
    assert _nodes_outcome(read_nodes, path) == _nodes_outcome(io_reference.read_nodes, path)


def _graph_fields(graph):
    """Every field of ``graph`` as plain Python values, to compare graphs."""
    values = {f.name: getattr(graph, f.name) for f in dataclasses.fields(graph)}
    values["elections"] = [(c.name, c.dem.tolist(), c.rep.tolist()) for c in graph.elections]
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def _copy_fixture(directory, rewrite):
    """The grid4 nodes, edges and assignment files, each rewritten by
    ``rewrite(text)`` into ``directory``; returns the three paths."""
    paths = []
    for name in ("nodes.csv", "edges.csv", "assignment.csv"):
        with open(os.path.join(GRID4, name), newline="", encoding="utf-8") as fh:
            (directory / name).write_text(rewrite(fh.read()), encoding="utf-8", newline="")
        paths.append(directory / name)
    return paths


def _quote_every_cell(text):
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(text)))
    return out.getvalue()


def test_written_files_are_split_without_csv(tmp_path, monkeypatch):
    """Files as mapchain writes them (CRLF), and their LF copies, are read
    without ``csv``; a copy with every cell quoted reads through ``csv`` to
    the same graph and plan."""
    expected = read_graph(os.path.join(GRID4, "nodes.csv"), os.path.join(GRID4, "edges.csv"))
    plan, names = read_assignment(os.path.join(GRID4, "assignment.csv"), expected)
    quoted = _copy_fixture(tmp_path, _quote_every_cell)
    assert all('"' in path.read_text() for path in quoted)
    csv_reads = []
    reader = csv.reader
    monkeypatch.setattr("mapchain.io.csv.reader", lambda *a: csv_reads.append(a) or reader(*a))
    graph = read_graph(*quoted[:2])
    assert _graph_fields(graph) == _graph_fields(expected) and len(csv_reads) == 2
    again, again_names = read_assignment(quoted[2], graph)
    assert again.assignment.tolist() == plan.assignment.tolist() and again_names == names

    def refuse(*args):
        raise AssertionError("read through csv")

    monkeypatch.setattr("mapchain.io.csv.reader", refuse)
    lf = tmp_path / "lf"
    lf.mkdir()
    for nodes, edges, assignment in (
        [os.path.join(GRID4, name) for name in ("nodes.csv", "edges.csv", "assignment.csv")],
        _copy_fixture(lf, lambda text: text.replace("\r\n", "\n")),
    ):
        graph = read_graph(nodes, edges)
        assert _graph_fields(graph) == _graph_fields(expected)
        again, again_names = read_assignment(assignment, graph)
        assert again.assignment.tolist() == plan.assignment.tolist() and again_names == names


def test_writers_reproduce_the_committed_fixture(tmp_path):
    """scripts/make_grid_fixture.py, run into a scratch directory, writes the
    committed grid4 files byte for byte."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_grid_fixture.py")
    runpy.run_path(script)["write_fixture"](str(tmp_path))
    for name in ("nodes.csv", "edges.csv", "assignment.csv", "chain.cfg"):
        with open(os.path.join(GRID4, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_graph_roundtrip_exact(tmp_path):
    graph = grid4_graph()
    write_nodes(graph, tmp_path / "n.csv")
    write_edges(graph, tmp_path / "e.csv")
    again = read_graph(tmp_path / "n.csv", tmp_path / "e.csv")
    assert again.precinct_ids == graph.precinct_ids
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
    with open(os.path.join(GOLDEN, "trace_seed7.csv"), "rb") as fh:
        golden = fh.read()
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


class _FailingWriter:
    """A csv writer whose row batches fail after the header went out."""

    def __init__(self, fh):
        self.fh = fh

    def writerow(self, row):
        self.fh.write(",".join(map(str, row)) + "\n")

    def writerows(self, rows):
        raise OSError("no space left on device")


def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    trace = run_chain(
        grid4_graph(), band_plan(4, 4, 4), 3, 0.01, ConstraintGate.permissive(),
        MetricsConfig(("PRES",)), np.random.default_rng(0),
    )
    out = tmp_path / "trace.csv"
    write_trace(trace, out)
    before = out.read_bytes()
    monkeypatch.setattr("mapchain.io.csv.writer", _FailingWriter)
    with pytest.raises(OSError, match="no space left"):
        write_trace(trace, out)
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["trace.csv"]


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
        ("burn_in", "-2"),
        ("tree_method", "bogus"),
        ("pair_selection", "bogus"),
    ],
)
def test_config_rejects_out_of_range(tmp_path, key, value):
    # the message names the key and gives the bad value
    path = tmp_path / "run.cfg"
    path.write_text(f"nodes = n.csv\nedges = e.csv\n{key} = {value}\n")
    got = rf"(got {re.escape(value)}|{re.escape(repr(value))})"
    with pytest.raises(errors.ConfigError, match=rf"\b{key}\b.*{got}"):
        read_config(path)


def test_config_validates_contests_against_graph():
    graph = grid4_graph()
    cfg = RunConfig(contests=("PRES", "NOPE"))
    with pytest.raises(errors.ConfigError, match="NOPE"):
        cfg.validate_contests(graph)
    assert RunConfig(contests=()).validate_contests(graph) == ("PRES", "SEN")
