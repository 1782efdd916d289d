"""CSV ingestion and serialization, run configuration, and SVG histograms.

File formats (all UTF-8, one leading byte order mark dropped, comma-delimited,
header row required; lines end in LF, CRLF or CR; cells may be quoted as in
RFC 4180; blank rows are skipped, and "row N" in a message counts non-blank
records, the header as row 1; a column that a reader reads may appear only
once):

* ``nodes.csv``: precinct_id, population, county_id, muni_id, area,
  perimeter, then one ``<contest>_D``/``<contest>_R`` column pair per
  contest (the contest set is inferred from the header, never declared).
* ``edges.csv``: src, dst, shared_perimeter (shared_perimeter optional,
  default 1.0).
* ``assignment.csv``: precinct_id, district. District labels may be
  arbitrary strings; they are densified to 0..k-1 in first-appearance
  order and the original labels returned alongside the plan.
* ``trace.csv``: step, accepted, then the fixed metric columns documented
  in ``TRACE_COLUMNS``.

A plain file, such as mapchain writes (no quote, no lone CR, the same cell
count on every line, no blank row), is split into columns at the positions
of its comma and line-break bytes, and each column decoded once; a nodes.csv
count column whose cells are all plain digits is read as numbers straight
from those bytes. Any other file goes through ``csv``, which reads it the
same way and reports its faults.

The run configuration is a flat ``key = value`` UTF-8 text file, read as the
CSV files are with one leading byte order mark dropped, whose keys match
:class:`RunConfig` fields exactly; unknown keys are errors.
"""
from __future__ import annotations

import codecs
import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import errors
from .chain import PAIR_SELECTION, ChainTrace
from .constraints import GATE_MODES
from .diagnostics import AcfSeries, SweepResult, summarize
from .graph import (
    INT64_MAX,
    NODE_COLUMNS,
    Contest,
    ElectionSet,
    Plan,
    PrecinctGraph,
    build_graph_from_arrays,
    repeated_pairs,
)
from .metrics import TRACE_METRIC_FIELDS, MetricsReport
from .trees import TREE_METHODS

TRACE_COLUMNS = ("step", "accepted") + tuple(col for col, _ in TRACE_METRIC_FIELDS)


def _read_columns(path, required, rows_required=False, integer=None) -> tuple:
    """``(header, columns)`` of a CSV file, where ``columns`` maps each header
    name to the tuple of its cells, unstripped.

    The file's bytes are split at their commas and line breaks when that
    reads them exactly as ``csv`` would (:func:`_split_columns`); there a
    column whose name ``integer(name)`` accepts and whose every cell is 1 to
    18 ASCII digits comes back as an int64 array instead. Any other file goes
    through ``csv`` (:func:`_csv_columns`), which alone reads quoted cells
    and reports faulty files. One leading UTF-8 byte order mark is dropped
    first. Raises ``MissingFile``, ``IngestError`` for a path that cannot be
    read, the errors of :func:`_csv_columns`, then ``MissingColumn`` for the
    first absent ``required`` name.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise errors.MissingFile(f"{path}: no such file") from None
    except OSError as e:
        raise errors.IngestError(f"{path}: cannot read ({e.strerror})") from None
    data = data.removeprefix(codecs.BOM_UTF8)  # as a spreadsheet's "CSV UTF-8" writes it
    split = _split_columns(data, integer)
    header, columns = split if split else _csv_columns(path, data, rows_required)
    for name in required:
        if name not in header:
            raise errors.MissingColumn(name)
    return header, columns


def _split_columns(data: bytes, integer=None):
    """``(header, columns)`` of the file contents ``data`` split at every
    comma and line break, or None where ``csv`` might read them otherwise:
    bytes that are not UTF-8, hold a ``"`` or a CR outside a CRLF, have fewer
    than two lines, a line whose cell count differs from the header's, a
    line of more bytes than ``csv.field_size_limit()`` or a line whose first
    cell is blank (``csv`` skips a line whose cells are all blank). Splitting
    the rest matches ``csv``'s default dialect cell for cell: a comma or LF
    byte never occurs inside a multi-byte UTF-8 character. A column is its
    cells decoded once, or, where ``integer(name)``, their int64 values if
    every cell is 1 to 18 ASCII digits (:func:`_digit_cells`).
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if b"\r" in data:  # CRLF line breaks; a file with no CR skips the copy
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    if b'"' in data:
        return None
    if not data.endswith(b"\n"):  # so that every line, the last one too, ends in a line break
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # the separator after each cell
    line_break = buf[ends] == ord("\n")
    n = int(line_break.argmax()) + 1  # the header's cell count
    if ends.size < 2 * n or ends.size % n or not (line_break.reshape(-1, n) == line_break[:n]).all():
        return None
    ends = ends.reshape(-1, n)
    if np.diff(ends[:, -1], prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    header = [h.strip() for h in data[:ends[0, -1]].decode("utf-8").split(",")]
    if not header[0]:
        return None
    columns = {}
    for j, name in enumerate(header):
        # a data cell starts after the comma before it or the line break of the line before
        cells = buf, (ends[1:, j - 1] if j else ends[:-1, -1]) + 1, ends[1:, j]
        column = _digit_cells(*cells) if integer and integer(name) else None
        if column is None:
            column = _decode_cells(*cells)
            if j == 0 and not all(map(str.strip, column)):
                return None
        columns[name] = column
    return header, columns


def _decode_cells(buf, starts, ends) -> tuple:
    """The cells ``buf[starts[i]:ends[i]]`` as str: their bytes, each with the
    separator after it (a column's cells all end alike), gathered, decoded
    once and split once."""
    lengths = ends - starts + 1
    # the steps from each gathered byte to the next, summed in place into their
    # positions: one position array at a time, where np.repeat needs three
    step = np.ones(lengths.sum(), dtype=np.intp)
    step[0] = starts[0]
    step[np.cumsum(lengths[:-1])] = starts[1:] - ends[:-1]
    text = buf[np.cumsum(step, out=step)].tobytes().decode("utf-8")
    return tuple(text[:-1].split(text[-1]))


def _digit_cells(buf, starts, ends):
    """The int64 values of the cells ``buf[starts[i]:ends[i]]`` if every cell
    is 1 to 18 ASCII digits, which cannot overflow int64; else None."""
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    values = np.zeros(lengths.size, dtype=np.int64)
    for k in range(lengths.max(), 0, -1):  # the k-th digit from each cell's end; 0 past its start
        digits = np.where(lengths >= k, buf[ends - k] - np.uint8(ord("0")), 0)
        if digits.max() > 9:  # a byte below "0" wraps past 9
            return None
        values = values * 10 + digits
    return values


def _csv_columns(path, data: bytes, rows_required) -> tuple:
    """``(header, columns)`` of the file contents ``data`` read through ``csv``,
    decoded as they stream, as ``open`` decodes a file.

    Raises ``IngestError`` for text that is not UTF-8 or that ``csv`` refuses
    (a cell over its field limit), ``EmptyFile`` for a file without a header
    row (or, when ``rows_required``, without data rows) and
    ``BadNumericField`` for a row shorter than the header.
    """
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        rows = [row for row in reader if "".join(row).strip()]
    except UnicodeDecodeError as e:
        raise errors.IngestError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        raise errors.IngestError(f"{path}: line {reader.line_num}: {e}") from None
    if not rows:
        raise errors.EmptyFile(f"{path}: no header row")
    header, rows = [h.strip() for h in rows[0]], rows[1:]
    if rows and min(map(len, rows)) < len(header):
        row_no, row = next(
            (i, row) for i, row in enumerate(rows, start=2) if len(row) < len(header)
        )
        raise errors.BadNumericField(
            f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}"
        )
    if rows_required and not rows:
        raise errors.EmptyFile(f"{path}: header but no data rows")
    cells = list(zip(*rows)) or [()] * len(header)
    return header, {name: cells[i] for i, name in enumerate(header)}


def _require_once(path, header, names) -> None:
    """Raise ``IngestError`` for the first of ``names``, the columns a reader
    reads, that ``header`` holds more than once: which copy to read is unclear."""
    for name in names:
        if header.count(name) > 1:
            raise errors.IngestError(f"{path}: column {name!r} appears more than once")


def _raise_first(faults) -> None:
    """Raise the error of the first bad row, and within it of the first check:
    ``faults`` holds ``(row index, rank of the check in its row, error)``."""
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]


def _is_count(name) -> bool:
    """Whether nodes.csv's column ``name`` holds integers: population and votes."""
    return name == "population" or name.endswith(("_D", "_R"))


def read_nodes(path):
    """Parse nodes.csv into ``(columns, elections)``, where ``columns`` maps
    each name in ``NODE_COLUMNS`` to its values in row order, as
    ``graph.build_graph_from_arrays`` takes them.

    Every ``<name>_D`` column must pair with ``<name>_R``; vote cells must
    be nonnegative integers.
    """
    header, col = _read_columns(path, NODE_COLUMNS, rows_required=True, integer=_is_count)
    _require_once(path, header, [name for name in header
                                 if name in NODE_COLUMNS or name.endswith(("_D", "_R"))])

    contest_names = []
    for name in header:
        if name.endswith("_D"):
            base = name[:-2]
            if f"{base}_R" not in col:
                raise errors.MissingColumn(f"{base}_R")
            contest_names.append(base)
        elif name.endswith("_R"):
            base = name[:-2]
            if f"{base}_D" not in col:
                raise errors.MissingColumn(f"{base}_D")

    # every numeric check, in the order a row's cells are checked: the first
    # bad row fails, and within it the first check
    checks = [("population", int), ("area", float), ("perimeter", float)]
    for name in contest_names:
        checks += [(f"{name}_D", int), (f"{name}_R", int), (name, None)]
    values, faults = {}, []
    for rank, (column, kind) in enumerate(checks):
        if kind is None:  # nonnegative votes in contest ``column``, where both cells parsed
            dem, rep = values[f"{column}_D"], values[f"{column}_R"]
            rows = min(dem.size, rep.size)
            negative = np.flatnonzero((dem[:rows] < 0) | (rep[:rows] < 0))
            if negative.size:
                i = int(negative[0])
                faults.append((i, rank, errors.NonNumericVotes(
                    f"{path}: row {i + 2}: negative votes in contest {column!r}"
                )))
            continue
        values[column] = _parse_column(path, column, col[column], kind, rank, faults)
    _raise_first(faults)

    columns = {
        name: values[name] if name in values else [cell.strip() for cell in col[name]]
        for name in NODE_COLUMNS
    }
    contests = [
        Contest(name, values[f"{name}_D"], values[f"{name}_R"])
        for name in contest_names
    ]
    return columns, ElectionSet(contests)


_INT64_MIN = int(np.iinfo(np.int64).min)


def _parse_column(path, column, raw, kind, rank, faults) -> np.ndarray:
    """The cells ``raw`` of ``column`` converted by ``kind`` (``int`` to int64,
    or ``float``; both ignore surrounding whitespace) in one pass, or ``raw``
    itself where the column reader already parsed it. Where a cell does not
    convert, or an int lies outside int64, the cells before it, and the
    cell's fault added to ``faults`` at check ``rank``."""
    if isinstance(raw, np.ndarray):
        return raw
    cls = errors.NonNumericVotes if column.endswith(("_D", "_R")) else errors.BadNumericField
    try:
        parsed = list(map(kind, raw))
    except ValueError:
        parsed = []
        for cell in raw:
            try:
                parsed.append(kind(cell))
            except ValueError:
                break
        i = len(parsed)
        faults.append((i, rank, cls(
            f"{path}: row {i + 2}, column {column!r}: not numeric: {raw[i].strip()!r}"
        )))
    try:
        return np.array(parsed, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:  # a fault at row i outranks every later one in this column
        i = next(i for i, v in enumerate(parsed) if not _INT64_MIN <= v <= INT64_MAX)
        faults.append((i, rank, cls(
            f"{path}: row {i + 2}, column {column!r}: out of the 64-bit integer range: "
            f"{raw[i].strip()!r}"
        )))
        return np.array(parsed[:i], dtype=np.int64)


def read_edges(path, node_index: dict) -> tuple:
    """Parse edges.csv into ``(edge_a, edge_b, edge_shared)`` arrays in file
    order, with endpoints resolved to ordinals through ``node_index``.

    The first bad row raises: a non-numeric shared_perimeter
    (``BadNumericField``), an unordered pair an earlier row already has
    (``DuplicateEdge``) or an unknown precinct (``DanglingEdge``), checked
    in that order within a row.
    """
    header, col = _read_columns(path, ("src", "dst"))
    _require_once(path, header, ("src", "dst", "shared_perimeter"))
    src = [cell.strip() for cell in col["src"]]
    dst = [cell.strip() for cell in col["dst"]]
    # a blank or absent shared_perimeter is 1
    raw_shared = [cell.strip() or "1" for cell in col.get("shared_perimeter", [""] * len(src))]
    faults = []
    shared = _parse_column(path, "shared_perimeter", raw_shared, float, 0, faults)
    edge_a = np.array([node_index.get(s, -1) for s in src], dtype=np.int64)
    edge_b = np.array([node_index.get(d, -1) for d in dst], dtype=np.int64)
    # a repeat of a pair with an unknown end comes after the row that first had it
    repeated = repeated_pairs(edge_a, edge_b)
    if repeated.size:
        i = int(repeated[0])
        pair = (src[i], dst[i]) if src[i] <= dst[i] else (dst[i], src[i])
        faults.append((i, 1, errors.DuplicateEdge(f"{path}: row {i + 2}: duplicate edge {pair}")))
    dangling = np.flatnonzero((edge_a < 0) | (edge_b < 0))
    if dangling.size:
        i = int(dangling[0])
        unknown = src[i] if src[i] not in node_index else dst[i]
        faults.append((i, 2, errors.DanglingEdge(
            f"{path}: row {i + 2}: unknown precinct {unknown!r}"
        )))
    _raise_first(faults)
    return edge_a, edge_b, shared


def read_graph(nodes_path, edges_path) -> PrecinctGraph:
    columns, elections = read_nodes(nodes_path)
    ids = columns["precinct_id"]
    node_index = dict(zip(ids, range(len(ids))))
    edge_a, edge_b, edge_shared = read_edges(edges_path, node_index)
    return build_graph_from_arrays(columns, node_index, edge_a, edge_b, edge_shared, elections)


def read_assignment(path, graph: PrecinctGraph):
    """Parse assignment.csv into ``(plan, names)``.

    ``names`` maps each dense district label back to the original label
    string, in first-appearance order. Every graph precinct must appear
    exactly once: the first bad row raises, an unknown precinct
    (``UnknownPrecinct``) or one an earlier row already assigned
    (``DuplicatePrecinctId``); then ``MissingPrecinct`` lists absent ones.
    """
    header, col = _read_columns(path, ("precinct_id", "district"))
    _require_once(path, header, ("precinct_id", "district"))
    pids = [cell.strip() for cell in col["precinct_id"]]
    labels = [cell.strip() for cell in col["district"]]
    index = np.array([graph.node_index.get(pid, -1) for pid in pids], dtype=np.int64)
    faults = []
    unknown = np.flatnonzero(index < 0)
    if unknown.size:
        i = int(unknown[0])
        faults.append((i, 0, errors.UnknownPrecinct(
            f"{path}: row {i + 2}: unknown precinct {pids[i]!r}"
        )))
    # a repeat of an unknown precinct comes after the row that first had it
    order = np.argsort(index, kind="stable")  # equal ids keep their row order
    repeated = order[1:][index[order[1:]] == index[order[:-1]]]
    if repeated.size:
        i = int(repeated.min())
        faults.append((i, 1, errors.DuplicatePrecinctId(
            f"{path}: row {i + 2}: precinct {pids[i]!r} assigned twice"
        )))
    _raise_first(faults)
    names = dict(enumerate(dict.fromkeys(labels)))
    label_of = {name: label for label, name in names.items()}
    assignment = np.full(graph.n, -1, dtype=np.int64)
    assignment[index] = [label_of[name] for name in labels]
    missing = np.flatnonzero(assignment < 0)
    if missing.size:
        raise errors.MissingPrecinct(
            f"{path}: precincts missing from assignment: "
            f"{[graph.precinct_ids[i] for i in missing[:8]]}"
            + ("..." if missing.size > 8 else "")
        )
    return Plan(assignment, len(names)), names


@contextlib.contextmanager
def replacing(path):
    """A text file to write ``path``'s new contents to. It is a temporary file
    in the same directory, renamed over ``path`` once written, so a reader
    sees the old file or the whole new one; on failure it is deleted and
    ``path`` is left as it was."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` through ``csv``, which
    writes ints with ``str`` and floats with shortest-roundtrip ``repr``."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_nodes(graph: PrecinctGraph, path) -> None:
    header = list(NODE_COLUMNS)
    votes = []
    for contest in graph.elections:
        header += [f"{contest.name}_D", f"{contest.name}_R"]
        votes += [contest.dem.tolist(), contest.rep.tolist()]
    county = [graph.county_names[c] for c in graph.county_codes.tolist()]
    muni = [graph.muni_names[m] for m in graph.muni_codes.tolist()]
    _write_csv(path, header, zip(
        graph.precinct_ids, graph.populations.tolist(), county, muni,
        graph.areas.tolist(), graph.perimeters.tolist(), *votes,
    ))


def write_edges(graph: PrecinctGraph, path) -> None:
    ids = graph.precinct_ids
    _write_csv(path, ["src", "dst", "shared_perimeter"], (
        (ids[a], ids[b], shared)
        for a, b, shared in zip(
            graph.edge_a.tolist(), graph.edge_b.tolist(), graph.edge_shared.tolist()
        )
    ))


def write_assignment(plan: Plan, graph: PrecinctGraph, path, names=None) -> None:
    labels = plan.assignment.tolist()
    if names:
        labels = [names[label] for label in labels]
    _write_csv(path, ["precinct_id", "district"], zip(graph.precinct_ids, labels))


def write_trace(trace: ChainTrace, path) -> None:
    """One row per recorded step with the fixed ``TRACE_COLUMNS`` header;
    identical runs produce byte-identical files."""
    if not len(trace):
        raise errors.EmptyInput("refusing to write an empty trace")
    rows = trace.rows
    columns = [rows["accepted"].astype(np.int64).tolist()]
    columns += [rows[field_name].tolist() for _, field_name in TRACE_METRIC_FIELDS]
    _write_csv(path, TRACE_COLUMNS, zip(range(len(trace)), *columns))


def write_summary(trace: ChainTrace, path) -> None:
    """Per-metric mean/std/min/max rows for a trace, by ``diagnostics.summarize``."""
    summaries = [(column, summarize(trace.series(name))) for column, name in TRACE_METRIC_FIELDS]
    _write_csv(path, ["metric", "mean", "std", "min", "max"],
               ([column, s.mean, s.std, s.min, s.max] for column, s in summaries))


def write_acf_csv(acf: AcfSeries, path) -> None:
    _write_csv(path, ["lag", "rho"], zip(acf.lags.tolist(), acf.rho.tolist()))


def write_sweep_csv(result: SweepResult, path) -> None:
    """Observed points get fitted=0; the extrapolated point gets fitted=1."""
    rows = [[p.cap, p.mean, p.std, p.n, 0] for p in result.points]
    rows.append([result.extrapolated_at, result.extrapolated_value, "", "", 1])
    _write_csv(path, ["cap", "mean", "std", "n", "fitted"], rows)


# --- SVG ----------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_MARGIN = 40.0


def _scale(lo, hi, out_lo, out_hi):
    """The linear map taking ``lo`` to ``out_lo`` and ``hi`` to ``out_hi``
    (an empty span ``hi - lo`` counts as 1)."""
    span = (hi - lo) or 1.0
    return lambda v: out_lo + (v - lo) / span * (out_hi - out_lo)


def _write_svg(path, parts) -> None:
    """Write the ``_SVG_W`` by ``_SVG_H`` SVG document of ``parts``, one a line."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        *parts,
        "</svg>",
    ]
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def histogram_counts(values, bins: int):
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise errors.EmptyInput("histogram needs at least one value")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    # numpy raises ValueError, not MemoryError, for bin edges at or past its
    # size limit; half of it (4 EiB of edges) already exceeds any address space
    if bins >= np.iinfo(np.intp).max // 16:
        raise MemoryError(f"{bins} histogram bins are more than numpy can address")
    return np.histogram(values, bins=bins)


def write_histogram_svg(values, bins: int, path, reference_line=None) -> None:
    """Standalone SVG: one <rect class="bar"> per bin (with a data-count
    attribute) plus an optional vertical <line class="refline">."""
    counts, edges = histogram_counts(values, bins)
    lo, hi = float(edges[0]), float(edges[-1])
    if reference_line is not None:
        lo = min(lo, float(reference_line))
        hi = max(hi, float(reference_line))
    x_of = _scale(lo, hi, _MARGIN, _SVG_W - _MARGIN)
    y_of = _scale(0, int(counts.max()) or 1, _SVG_H - _MARGIN, _MARGIN)
    parts = [
        f'<line class="axis" x1="{_MARGIN:.2f}" y1="{_SVG_H - _MARGIN:.2f}" '
        f'x2="{_SVG_W - _MARGIN:.2f}" y2="{_SVG_H - _MARGIN:.2f}" stroke="black"/>',
    ]
    for i, count in enumerate(counts):
        x0 = x_of(float(edges[i]))
        x1 = x_of(float(edges[i + 1]))
        y = y_of(float(count))
        parts.append(
            f'<rect class="bar" data-count="{int(count)}" x="{x0:.2f}" '
            f'y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{_SVG_H - _MARGIN - y:.2f}" fill="steelblue" stroke="white"/>'
        )
    if reference_line is not None:
        xr = x_of(float(reference_line))
        parts.append(
            f'<line class="refline" x1="{xr:.2f}" y1="{_MARGIN:.2f}" '
            f'x2="{xr:.2f}" y2="{_SVG_H - _MARGIN:.2f}" stroke="black" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{_MARGIN:.2f}" y="{_SVG_H - 10:.2f}" font-size="12">{lo:.4g}</text>'
    )
    parts.append(
        f'<text x="{_SVG_W - _MARGIN:.2f}" y="{_SVG_H - 10:.2f}" font-size="12" '
        f'text-anchor="end">{hi:.4g}</text>'
    )
    _write_svg(path, parts)


def write_sweep_svg(result: SweepResult, path) -> None:
    """Scatter of sweep points, the OLS line, and the optional baseline."""
    caps = [p.cap for p in result.points] + [result.extrapolated_at]
    means = [p.mean for p in result.points] + [result.extrapolated_value]
    if result.baseline is not None:
        means.append(result.baseline)
    lo_x, hi_x = min(caps), max(caps)
    x_of = _scale(lo_x, hi_x, _MARGIN, _SVG_W - _MARGIN)
    y_of = _scale(min(means), max(means), _SVG_H - _MARGIN, _MARGIN)
    y0 = result.fit_intercept + result.fit_slope * lo_x
    y1 = result.fit_intercept + result.fit_slope * hi_x
    parts = [
        f'<line class="fit" x1="{x_of(lo_x):.2f}" y1="{y_of(y0):.2f}" '
        f'x2="{x_of(hi_x):.2f}" y2="{y_of(y1):.2f}" stroke="steelblue"/>'
    ]
    if result.baseline is not None:
        yb = y_of(result.baseline)
        parts.append(
            f'<line class="baseline" x1="{_MARGIN:.2f}" y1="{yb:.2f}" '
            f'x2="{_SVG_W - _MARGIN:.2f}" y2="{yb:.2f}" stroke="seagreen" '
            f'stroke-dasharray="4 3"/>'
        )
    for p in result.points:
        parts.append(
            f'<circle class="point" cx="{x_of(p.cap):.2f}" cy="{y_of(p.mean):.2f}" '
            f'r="4" fill="navy"/>'
        )
    parts.append(
        f'<circle class="extrapolated" cx="{x_of(result.extrapolated_at):.2f}" '
        f'cy="{y_of(result.extrapolated_value):.2f}" r="4" fill="crimson"/>'
    )
    _write_svg(path, parts)


# --- run configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    """Flat run configuration; field names double as config-file keys."""

    nodes: str = ""
    edges: str = ""
    assignment: str = ""
    steps: int = 1000
    pop_tolerance: float = 0.02
    seed: int = 0
    burn_in: int = -1  # -1 means auto (one estimated correlation length)
    thinning: int = 1
    mode: str = "permissive"  # one of constraints.GATE_MODES
    county_cap: int = 0
    muni_cap: int = 0
    gibbs_weight_county: float = 0.0
    gibbs_weight_muni: float = 0.0
    gibbs_weight_district_county: float = 0.0
    contests: tuple = ()  # empty means every contest in the node file
    out_dir: str = "out"
    districts: int = 0  # 0 means take k from the assignment file
    n_chains: int = 1
    workers: int = 1
    n_plans: int = 100
    tree_method: str = "uniform"
    pair_selection: str = "uniform"
    max_tree_retries: int = 50
    tree_retry_cap: int = 1000
    hist_bins: int = 20
    acf_max_lag: int = 50
    fractional_sigma: float = 0.05
    sweep_caps: tuple = ()
    sweep_metric: str = "seats_avg"
    sweep_replicates: int = 3
    sweep_extrapolate_cap: float = float("nan")
    bench_iterations: int = 1000
    bench_tree_plans: int = 20

    def validate(self) -> None:
        for key, low in (
            ("steps", 1),
            ("seed", 0),
            ("thinning", 1),
            ("county_cap", 0),
            ("muni_cap", 0),
            ("gibbs_weight_county", 0),
            ("gibbs_weight_muni", 0),
            ("gibbs_weight_district_county", 0),
            ("districts", 0),
            ("n_chains", 1),
            ("workers", 1),
            ("n_plans", 1),
            ("max_tree_retries", 1),
            ("tree_retry_cap", 0),
            ("hist_bins", 1),
            ("acf_max_lag", 0),
            ("sweep_replicates", 1),
            ("bench_iterations", 1),
            ("bench_tree_plans", 1),
        ):
            if not getattr(self, key) >= low:  # NaN fails too
                raise errors.ConfigError(
                    f"{key} must be >= {low}, got {getattr(self, key)}"
                )
        for key in ("gibbs_weight_county", "gibbs_weight_muni",
                    "gibbs_weight_district_county", "sweep_extrapolate_cap"):
            if math.isinf(getattr(self, key)):
                raise errors.ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if any(cap < 0 for cap in self.sweep_caps):
            raise errors.ConfigError(
                f"sweep_caps must all be >= 0, got {list(self.sweep_caps)}"
            )
        if self.burn_in < -1:
            raise errors.ConfigError(f"burn_in must be >= 0, or -1 for auto, got {self.burn_in}")
        if not 0.0 < self.pop_tolerance < 1.0:
            raise errors.ConfigError(
                f"pop_tolerance must lie in (0, 1), got {self.pop_tolerance}"
            )
        if not 0.0 < self.fractional_sigma < 0.5:
            raise errors.ConfigError(
                f"fractional_sigma must lie in (0, 0.5), got {self.fractional_sigma}"
            )
        for key, allowed in (
            ("mode", GATE_MODES),
            ("tree_method", TREE_METHODS),
            ("pair_selection", PAIR_SELECTION),
            ("sweep_metric", tuple(f.name for f in fields(MetricsReport))),
        ):
            if getattr(self, key) not in allowed:
                raise errors.ConfigError(
                    f"unknown {key} {getattr(self, key)!r}; use one of {allowed}"
                )

    def validate_contests(self, graph: PrecinctGraph) -> tuple:
        """Resolve the contest sample against the graph; empty means all."""
        available = graph.elections.names()
        if not self.contests:
            if not available:
                raise errors.ConfigError("node file declares no contests")
            return available
        for name in self.contests:
            if name not in graph.elections:
                raise errors.ConfigError(
                    f"contest {name!r} not present in node file; available: {available}"
                )
        return tuple(self.contests)


_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_config_value(key: str, raw: str):
    raw = raw.strip()
    if key == "contests":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if key == "sweep_caps":
        return tuple(int(s) for s in raw.split(",") if s.strip())
    if key == "burn_in":
        return -1 if raw == "auto" else int(raw)
    default = _CONFIG_FIELDS[key].default
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def read_config(path, overrides: Optional[dict] = None) -> RunConfig:
    """Parse a key=value config file. Unknown keys fail fast; ``overrides``
    (e.g. CLI flags) win over file values."""
    raw_values = {}  # key -> (where it was set, raw value)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise errors.ConfigError(
                        f"{path}: line {line_no}: expected key = value"
                    )
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_FIELDS:
                    raise errors.ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
                raw_values[key] = (f"{path}: line {line_no}", raw)
    except FileNotFoundError:
        raise errors.ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise errors.ConfigError(f"{path}: cannot read ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise errors.ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    for key, raw in (overrides or {}).items():
        if key not in _CONFIG_FIELDS:
            raise errors.ConfigError(f"unknown config key {key!r}")
        raw_values[key] = ("override", raw)
    values = {}
    for key, (where, raw) in raw_values.items():
        try:
            values[key] = _parse_config_value(key, raw) if isinstance(raw, str) else raw
        except ValueError:
            raise errors.ConfigError(
                f"{where}: bad value for {key!r}: {raw.strip()!r}"
            ) from None
    config = RunConfig(**values)
    config.validate()
    return config
