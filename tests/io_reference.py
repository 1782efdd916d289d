"""References for the CSV readers of ``mapchain.io``.

``read_columns`` is the column reader as it was before plain files were
split from their text: ``csv.reader`` over the whole file, one row list per
record. ``read_edges`` and ``read_assignment`` are the edge and assignment
readers as they were before every reader raised its first fault through one
rule: each finds its faults by cutting its arrays at the first bad row of
the check before. ``read_nodes`` is the node reader as it was before integer
columns were parsed from their bytes: every cell through ``int()`` or
``float()``. The readers must return the same values for every file, or
raise the same error class with the same message.
"""
import csv

import numpy as np

from mapchain import errors
from mapchain.graph import NODE_COLUMNS, Contest, ElectionSet, Plan, repeated_pairs


def read_columns(path, required, rows_required=False) -> tuple:
    """``(header, columns)`` of a CSV file, where ``columns`` maps each header
    name to the tuple of its cells, unstripped.

    Raises ``MissingFile``, ``IngestError`` for text that is not UTF-8 or
    that ``csv`` refuses (a cell over its field limit), ``EmptyFile`` for a
    file without a header row (or, when ``rows_required``, without data
    rows), ``BadNumericField`` for a row shorter than the header, then
    ``MissingColumn`` for the first absent ``required`` name.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if "".join(row).strip()]
    except FileNotFoundError:
        raise errors.MissingFile(f"{path}: no such file") from None
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
    for name in required:
        if name not in header:
            raise errors.MissingColumn(name)
    cells = list(zip(*rows)) or [()] * len(header)
    return header, {name: cells[i] for i, name in enumerate(header)}


def read_nodes(path):
    """``(columns, elections)`` of a nodes.csv; the first bad row raises, and
    within it the first check in the order of the row's cells."""
    header, col = read_columns(path, NODE_COLUMNS, rows_required=True)
    for name in header:
        if (name in NODE_COLUMNS or name.endswith(("_D", "_R"))) and header.count(name) > 1:
            raise errors.IngestError(f"{path}: column {name!r} appears more than once")
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
    checks = [("population", int), ("area", float), ("perimeter", float)]
    for name in contest_names:
        checks += [(f"{name}_D", int), (f"{name}_R", int), (name, None)]
    values, faults = {}, []
    for rank, (column, kind) in enumerate(checks):
        if kind is None:
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
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    columns = {
        name: values[name] if name in values else [cell.strip() for cell in col[name]]
        for name in NODE_COLUMNS
    }
    contests = [
        Contest(name, values[f"{name}_D"], values[f"{name}_R"]) for name in contest_names
    ]
    return columns, ElectionSet(contests)


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _parse_column(path, column, raw, kind, rank, faults) -> np.ndarray:
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
    except OverflowError:
        i = next(i for i, v in enumerate(parsed) if not _INT64_MIN <= v <= _INT64_MAX)
        faults.append((i, rank, cls(
            f"{path}: row {i + 2}, column {column!r}: out of the 64-bit integer range: "
            f"{raw[i].strip()!r}"
        )))
        return np.array(parsed[:i], dtype=np.int64)


def read_edges(path, node_index: dict) -> tuple:
    """``(edge_a, edge_b, edge_shared)`` of an edges.csv; the first bad row
    raises, checked within a row for its number, a repeated pair, then an
    unknown precinct."""
    _, col = read_columns(path, ("src", "dst"))
    src = [cell.strip() for cell in col["src"]]
    dst = [cell.strip() for cell in col["dst"]]
    raw_shared = (
        [cell.strip() for cell in col["shared_perimeter"]]
        if "shared_perimeter" in col
        else [""] * len(src)
    )
    shared, bad_number = [], len(src)
    for i, raw in enumerate(raw_shared):
        try:
            shared.append(float(raw) if raw else 1.0)
        except ValueError:
            bad_number = i
            break
    edge_a = np.array([node_index.get(s, -1) for s in src[:bad_number]], dtype=np.int64)
    edge_b = np.array([node_index.get(d, -1) for d in dst[:bad_number]], dtype=np.int64)
    dangling = np.flatnonzero((edge_a < 0) | (edge_b < 0))
    first_bad = int(dangling[0]) if dangling.size else bad_number
    repeated = repeated_pairs(edge_a[:first_bad], edge_b[:first_bad])
    if repeated.size:
        i = int(repeated[0])
        pair = (src[i], dst[i]) if src[i] <= dst[i] else (dst[i], src[i])
        raise errors.DuplicateEdge(f"{path}: row {i + 2}: duplicate edge {pair}")
    if first_bad < bad_number:
        unknown = src[first_bad] if src[first_bad] not in node_index else dst[first_bad]
        raise errors.DanglingEdge(f"{path}: row {first_bad + 2}: unknown precinct {unknown!r}")
    if bad_number < len(src):
        raise errors.BadNumericField(
            f"{path}: row {bad_number + 2}, column 'shared_perimeter': "
            f"not numeric: {raw_shared[bad_number]!r}"
        )
    return edge_a, edge_b, np.array(shared, dtype=np.float64)


def read_assignment(path, graph):
    """``(plan, names)`` of an assignment.csv; the first bad row raises, an
    unknown precinct or a repeated one, then ``MissingPrecinct``."""
    _, col = read_columns(path, ("precinct_id", "district"))
    pids = [cell.strip() for cell in col["precinct_id"]]
    labels = [cell.strip() for cell in col["district"]]
    index = np.array([graph.node_index.get(pid, -1) for pid in pids], dtype=np.int64)
    unknown = np.flatnonzero(index < 0)
    first_bad = int(unknown[0]) if unknown.size else len(pids)
    order = np.argsort(index[:first_bad], kind="stable")
    repeated = order[1:][index[order[1:]] == index[order[:-1]]]
    if repeated.size:
        i = int(repeated.min())
        raise errors.DuplicatePrecinctId(
            f"{path}: row {i + 2}: precinct {pids[i]!r} assigned twice"
        )
    if unknown.size:
        raise errors.UnknownPrecinct(
            f"{path}: row {first_bad + 2}: unknown precinct {pids[first_bad]!r}"
        )
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
