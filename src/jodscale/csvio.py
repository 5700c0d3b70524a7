"""The one CSV dialect of every file jodscale reads or writes.

Files are UTF-8 text; a byte order mark at the start is skipped. Fields are
separated by commas, and the first row is a header. Columns are found by
header name, in any order, and extra columns are ignored. Fields may be
quoted (``"``, with ``""`` for a quote inside one), lines may end in LF,
CRLF or a lone CR, mixed within a file, and blank lines are skipped. There
are no comment lines. Bytes that are not valid UTF-8, a missing column, a
row too short for the columns read, a field longer than
``csv.field_size_limit()`` or a cell its column's parser rejects is a parse
error. The JSON files jodscale writes go through ``_write_json``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import ParseError

# A block's text, its encoded bytes and its split field strings are held at
# once: some 10 bytes of temporaries per character, 11 MB at 1 << 20 on a
# comparisons file. Blocks of 1 << 18 hold a quarter of that and read a large
# file no slower.
_BLOCK_CHARS = 1 << 18
_SPECIAL = re.compile(r'[,"\r\n]')  # characters that make a written field need quotes
_CHUNK_ROWS = 256  # rows per write: larger blocks leave more heap behind


def _read_csv(path: Path, parsers: Mapping[str, Callable]) -> list:
    """Read a CSV file in one pass; return each required column converted
    by its parser (``parsers`` maps column name to parser). The file is read
    in blocks of whole lines of about ``_BLOCK_CHARS`` characters, so the
    text of a large file is never held at once."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    chunks = []
    with handle:
        try:
            header = next(csv.reader(handle), [])
            missing = [col for col in parsers if col not in header]
            if missing:
                raise ParseError(f"{path} is missing columns {missing} (header {header})")
            positions = [header.index(col) for col in parsers]
            width = max(positions) + 1
            while block := handle.read(_BLOCK_CHARS):
                if block[-1] != "\n":
                    block += handle.readline()
                columns = _split_plain(block, width) or _split_rows(block, width, handle, path)
                if not columns:
                    continue
                parsed = []
                for (col, parse), pos in zip(parsers.items(), positions):
                    try:
                        parsed.append(parse(columns[pos]))
                    except (ValueError, OverflowError) as exc:
                        raise ParseError(f"{path}, column {col!r}: {exc}") from exc
                chunks.append(parsed)
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # exc.start counts from the decoder's buffer, not from the file start
            raise ParseError(f"{path} is not valid UTF-8: byte {exc.object[exc.start]:#04x}, "
                             f"{exc.reason}") from exc
    if not chunks:
        return [parse(()) for parse in parsers.values()]
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _split_plain(block: str, width: int) -> list | None:
    """The columns of a block of plain lines, split once; ``None`` unless
    the block has no quote, no carriage return, no blank line and no line
    longer than ``csv.field_size_limit()``, and every line has the same
    number of fields, at least ``width``."""
    if '"' in block or "\r" in block or "\n\n" in block or block[0] == "\n":
        return None
    text = block.removesuffix("\n")
    data = np.frombuffer(text.encode(), np.uint8)
    line_ends = np.append(np.flatnonzero(data == ord("\n")), data.size)
    # a line's length in bytes bounds each of its fields' length in characters
    if np.diff(line_ends, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    fields = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), line_ends), prepend=0) + 1
    if fields[0] < width or np.any(fields != fields[0]):
        return None
    parts = text.replace("\n", ",").split(",")
    return [parts[pos::fields[0]] for pos in range(width)]


def _split_rows(block: str, width: int, handle, path: Path) -> list:
    """The columns of a block read row by row with ``csv.reader``, skipping
    blank rows; a short row is a parse error, and a row ``csv.reader``
    rejects (a field longer than ``csv.field_size_limit()``, say) raises
    ``csv.Error``. A quoted field still open at the end of the block is
    completed from ``handle``."""
    lines = io.StringIO(block, newline="")
    reader = csv.reader(chain(lines, handle))
    rows = []
    while lines.tell() < len(block):
        # rows as tuples: the garbage collector stops tracking tuples of strings
        row = tuple(next(reader))
        if row:
            if len(row) < width:
                raise ParseError(f"{path} has a row with fewer than {width} fields: {row}")
            rows.append(row)
    return list(zip(*rows))


def _cells(convert, dtype) -> Callable:
    """A ``_read_csv`` parser that converts every cell of a column."""
    return lambda texts: np.array(list(map(convert, texts)), dtype=dtype)


def _quoted(texts: list[str]) -> list[str]:
    """Each text as a field for a ``{}`` cell of ``_write_csv``: quoted,
    with each quote inside doubled, when it holds a comma, a quote, a CR or
    an LF."""
    return ['"' + text.replace('"', '""') + '"' if _SPECIAL.search(text) else text
            for text in texts]


def _write_csv(path: Path, header: str, row_format: str, *columns) -> None:
    """Write ``header`` and what ``row_format.format`` gives for each row of
    the columns (Python lists of one length, so that floats format as
    floats), in blocks of ``_CHUNK_ROWS`` rows. Each comma-separated cell of
    ``row_format`` is constant text or one field; the column of a ``{}``
    field must hold strings, which are written as they are."""
    fields = iter(columns)
    strings = []
    for cell in row_format.removesuffix("\n").split(","):
        if "{" not in cell:
            strings.append(repeat(cell, len(columns[0])))
        elif cell != "{}":
            strings.append(map(cell.format, next(fields)))
        else:
            strings.append(next(fields))
    rows = map(",".join, zip(*strings))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(header)
        while block := list(islice(rows, _CHUNK_ROWS)):
            handle.write("\n" + "\n".join(block))
        handle.write("\n")


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys; a NaN or an
    infinity in it raises ``ValueError``, as standard JSON cannot hold it."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")
