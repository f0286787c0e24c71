"""The one reader of CSV input: the rows of a UTF-8 file."""

import csv

from .errors import ValidationError


def _lines(fh):
    """The lines of the binary file `fh`, read one at a time past a UTF-8
    byte order mark (which Excel's "CSV UTF-8" writes), each ending at \\n, \\r
    or \\r\\n as newline="" ends them: a file iterates in pieces that end at
    \\n, and a lone \\r splits its piece."""
    first = True
    for piece in fh:
        if first:
            piece, first = piece.removeprefix(b"\xef\xbb\xbf"), False
        yield from piece.splitlines(keepends=True)


def csv_rows(path: str):
    """The rows of the CSV file at `path`, read a line at a time, so a file
    of any length holds one line in memory; a byte that is not UTF-8, or a
    cell over the csv module's field limit, is a ValidationError naming the
    file and line."""
    with open(path, "rb") as fh:
        reader = csv.reader(line.decode("utf-8") for line in _lines(fh))
        try:
            yield from reader
        except (UnicodeDecodeError, csv.Error) as exc:
            # the reader counts the lines it has been given, and not one that failed to decode
            line = reader.line_num + isinstance(exc, UnicodeDecodeError)
            raise ValidationError(f"{path}: line {line}: {exc}") from None
