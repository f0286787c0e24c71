"""Write an N-row query file by repeating the rows of a query CSV.

    python3 tools/repeat_queries.py --input QUERIES.csv --rows N --out OUT.csv

copies the header of QUERIES.csv and then its data rows over and over, in
order, until N rows are written. Every written row gets a fresh id: the
k-th pass over the input (k = 0, 1, ...) writes the id ``ID#k`` for a row of
id ``ID``, so the ids stay distinct whenever the input's are. Empty rows are
skipped, and every other cell is copied as it is. The file is written with
the csv module's default dialect, lines ending in ``\\r\\n``, as Python's
csv writer writes them. This is how the at-scale inverse ``predict`` figures
are made from the benchmark's 1,000-query file, for example:

    python3 bench/inputs.py --workload inverse --seed 0 --out in
    python3 tools/repeat_queries.py --input in/queries.csv --rows 40000 --out q40k.csv

Uses the standard library only.
"""

import argparse
import csv
import sys


def repeat_rows(header: list[str], rows: list[list[str]], n: int):
    """The first `n` rows of `rows` repeated end to end, each with its id
    cell (the column named ``id`` in `header`) suffixed ``#k`` on pass k."""
    at = header.index("id")
    for i in range(n):
        k, row = divmod(i, len(rows))
        row = list(rows[row])
        row[at] = f"{row[at]}#{k}"
        yield row


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True, help="query CSV whose rows are repeated")
    p.add_argument("--rows", type=int, required=True, help="data rows to write")
    p.add_argument("--out", required=True, help="CSV file to write")
    args = p.parse_args()
    if args.rows < 0:
        p.error("--rows must be >= 0")
    with open(args.input, newline="", encoding="utf-8-sig") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if "id" not in header:
        p.error(f"{args.input} has no 'id' column")
    if args.rows and not rows:
        p.error(f"{args.input} has no data row to repeat")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(repeat_rows(header, rows, args.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
