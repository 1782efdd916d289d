"""Reference for ``io._read_columns``: every file read through ``csv``.

The column reader as it was before plain files were split from their text:
``csv.reader`` over the whole file, one row list per record. The reader
must return the same ``(header, columns)`` for every file, or raise the same
error class with the same message.
"""
import csv

from mapchain import errors


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

