"""Reference feature rows: one Python list per sample and part, as
corrml.preprocess built them before its column table.

Kept only as the oracle that the table and its feature-set selection must
match row for row and bit for bit (tests/test_preprocess.py). A part gives a
sample's values for its columns, or None where the sample lacks the field,
which keeps the sample out.
"""

import numpy as np

from corrml.dataset import DEFAULT_ENVIRONMENTS, ELEMENT_ORDER

INVERSE_BASE = ("Al", "Si", "Mg")
INVERSE_TARGETS = ("Zn", "Ti", "Ni", "Cu", "Fe", "Mn")

PARTS = {
    "comp": lambda s: [s.composition.get(sym) for sym in ELEMENT_ORDER],
    "env": lambda s: [float(k == s.environment) for k in range(len(DEFAULT_ENVIRONMENTS))],
    "temp": lambda s: None if s.temperature is None else [s.temperature],
    "dur": lambda s: None if s.duration is None else [s.duration],
    "base": lambda s: [s.rate, float(s.environment)] + [s.composition.get(e) for e in INVERSE_BASE],
    "rate": lambda s: [s.rate],
    "targets": lambda s: [s.composition.get(e) for e in INVERSE_TARGETS],
}
WIDTHS = {"comp": len(ELEMENT_ORDER), "env": len(DEFAULT_ENVIRONMENTS), "temp": 1, "dur": 1,
          "base": 2 + len(INVERSE_BASE), "rate": 1, "targets": len(INVERSE_TARGETS)}


def feature_rows(samples, feature_set):
    """(positions, matrix) of the samples that have a value in every column
    of `feature_set`: their positions in `samples`, in order, and their rows."""
    parts = [PARTS[name] for name in feature_set.split("+")]
    positions, rows = [], []
    for i, s in enumerate(samples):
        values = [part(s) for part in parts]
        if None not in values:
            positions.append(i)
            rows.append([v for part in values for v in part])
    width = sum(WIDTHS[name] for name in feature_set.split("+"))
    return positions, np.asarray(rows, dtype=float).reshape(len(positions), width)
