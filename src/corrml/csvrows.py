"""The one reader of CSV input: the rows of a UTF-8 file."""

import csv

from .errors import ValidationError


def csv_rows(path: str):
    """The rows of the CSV file at `path`, read past a UTF-8 byte order mark (which
    Excel's "CSV UTF-8" writes); a byte that is not UTF-8, or a cell over the csv
    module's field limit, is a ValidationError naming the file and line."""
    with open(path, "rb") as fh:  # lines end at \n, \r and \r\n, as newline="" does
        lines = fh.read().removeprefix(b"\xef\xbb\xbf").splitlines(keepends=True)
    reader = csv.reader(line.decode("utf-8") for line in lines)
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        # the reader counts the lines it has been given, and not one that failed to decode
        line = reader.line_num + isinstance(exc, UnicodeDecodeError)
        raise ValidationError(f"{path}: line {line}: {exc}") from None
