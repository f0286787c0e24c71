"""Dataset -> model-ready matrices: the one column table every stream of
samples is written into, the feature-set grammar that selects from it for
both directions, one-hot environments, the training-data check every model
family applies, standard scaling, target capping and train/test splits.

All transformations are pure and deterministic in their (data, seed) inputs so
that a run can be reproduced bit-for-bit from its recorded metadata.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .dataset import DEFAULT_ENVIRONMENTS, ELEMENT_ORDER, CorrosionSample, Dataset, table_row
from .errors import NoSamplesError, ValidationError
from .schema import array, parse

FEATURE_SETS = ("comp", "comp+env", "comp+env+temp", "comp+env+dur", "comp+env+temp+dur")

DEFAULT_LOG_EPSILON = 1e-6  # mpy shift so zero rates survive the log transform


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n_samples, n_features) float64; every sample field is finite
    sample_ids: list[str]


@dataclass
class SampleTable:
    """Samples as columns, as Arrow lays them out: the ids, UTF-8, end to
    end in `id_bytes` (sample i's at offsets[i]:offsets[i + 1]), a sixth of
    the memory of str objects, and one row of `values` per sample, one column
    per field: an element symbol (at%), "env" (the environment id), "temp",
    "dur" (NaN where absent) or "rate"."""
    fields: tuple[str, ...]
    values: np.ndarray
    id_bytes: bytearray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def ids(self, rows) -> list[str]:
        """The ids of the samples at positions `rows`, in order."""
        ends = zip(self.offsets[rows].tolist(), self.offsets[np.add(rows, 1)].tolist())
        return [self.id_bytes[a:b].decode() for a, b in ends]

    def columns(self, fields: Sequence[str], rows) -> np.ndarray:
        """The values of `fields` of the samples at positions `rows`, read
        column by column into one C-ordered matrix: the GP's products round a
        Fortran-ordered matrix differently."""
        return np.stack([self.values[rows, self.fields.index(name)] for name in fields], axis=1)


def sample_records(samples: Iterable[CorrosionSample], fields: Sequence[str]
                   ) -> Iterator[tuple[str, list[float]]]:
    """(id, row) of each of `samples`, its `dataset.table_row` of `fields`,
    as `dataset.csv_records` yields a file's."""
    slots = {name: j for j, name in enumerate(fields)}
    for s in samples:
        yield s.id, table_row(slots, s.composition.entries, s.environment, s.rate,
                              s.temperature, s.duration)


def sample_table(records: Iterable[tuple[str, Sequence[float]]], fields: Sequence[str],
                 size: int | None = None) -> Iterator[SampleTable]:
    """Tables of at most `size` (all in one if None) of `records`, (id, row
    of `fields`) pairs, each built as the iteration reaches it, so a stream
    of records is held a table at a time; the last holds what remains, maybe
    nothing."""
    fields = tuple(fields)
    records = iter(records)
    # `struct` packs them: numpy loads it, and `array` would add 0.4 MB of RSS
    pack_row, pack_offset = struct.Struct(f"{len(fields)}d").pack, struct.Struct("q").pack
    while True:
        id_bytes, offsets, values = bytearray(), bytearray(pack_offset(0)), bytearray()
        for sample_id, row in islice(records, size):
            id_bytes += sample_id.encode()
            offsets += pack_offset(len(id_bytes))
            values += pack_row(*row)
        n = len(offsets) // 8 - 1
        yield SampleTable(fields, np.frombuffer(values).reshape(n, len(fields)), id_bytes,
                          np.frombuffer(offsets, dtype=np.int64))
        if size is None or n < size:
            return


# A feature set joins its parts with "+", and its columns are its parts'
# table fields in that order, so its name alone fixes its layout; a forward
# set's env part is one indicator column per environment. Forward sets read
# comp, env, temp and dur, inverse sets base, dur and temp.
INVERSE_BASE_ELEMENTS = ("Al", "Si", "Mg")
_PART_FIELDS = {"comp": ELEMENT_ORDER, "env": ("env",), "temp": ("temp",), "dur": ("dur",),
                "base": ("rate", "env", *INVERSE_BASE_ELEMENTS)}
# a forward part's (name, kind) per column, as a model file records them
_COLUMNS = {"comp": [(sym, "composition") for sym in ELEMENT_ORDER],
            "env": [(f"env={name}", "environment-indicator") for name in DEFAULT_ENVIRONMENTS],
            "temp": [("temp_c", "temperature")], "dur": [("duration_days", "duration")]}


def feature_fields(feature_set: str) -> tuple[str, ...]:
    """The table fields `feature_set` reads."""
    return tuple(f for part in feature_set.split("+") for f in _PART_FIELDS[part])


def feature_columns(feature_set: str) -> list[dict]:
    """The name and kind of each column of `feature_set`'s rows."""
    return [{"name": name, "kind": kind} for part in feature_set.split("+")
            for name, kind in _COLUMNS[part]]


def feature_width(feature_set: str) -> int:
    """The number of columns of `feature_set`'s rows."""
    return sum(len(DEFAULT_ENVIRONMENTS) if part == "env" else len(_PART_FIELDS[part])
               for part in feature_set.split("+"))


def select(table: SampleTable, feature_set: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, X): the positions of the samples of `table` that carry every
    field `feature_set` reads, found first, and their columns, each written
    straight into one C-ordered X (a forward env part's indicators compared
    in place), so the table's rows are never copied."""
    present = np.ones(len(table), dtype=bool)
    for name in {"temp", "dur"}.intersection(feature_set.split("+")):  # the fields NaN marks absent
        present &= ~np.isnan(table.values[:, table.fields.index(name)])
    rows = np.flatnonzero(present)
    X = np.empty((rows.size, feature_width(feature_set)))
    j = 0
    for part in feature_set.split("+"):
        for name in _PART_FIELDS[part]:
            column = table.values[rows, table.fields.index(name), None]
            width = len(DEFAULT_ENVIRONMENTS) if part == "env" else 1
            if part == "env":
                np.equal(column, np.arange(width), out=X[:, j:j + width])
            else:
                X[:, j:j + 1] = column
            j += width
    return rows, X


def build_features(d: Dataset, feature_set: str) -> tuple[FeatureMatrix, np.ndarray]:
    """(matrix, rates in mils/year) of the samples of `d` that carry every
    field of `feature_set`, none of which is a NoSamplesError: composition
    columns in the fixed element order, one indicator per environment label."""
    if feature_set not in FEATURE_SETS:
        raise ValidationError(f"unknown feature set {feature_set!r}; choose from {FEATURE_SETS}")
    fields = feature_fields(feature_set) + ("rate",)
    (table,) = sample_table(sample_records(d.samples, fields), fields)
    rows, X = select(table, feature_set)
    if not rows.size:
        raise NoSamplesError(f"no samples carry the fields required by {feature_set!r}")
    return FeatureMatrix(X, table.ids(rows)), table.columns(("rate",), rows)[:, 0]


def training_matrices(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) as float arrays, checked as every model family's training data:
    X 2-D, one row of Y per row of X, Y not empty, every value finite."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got {X.ndim}-D")
    if Y.shape[:1] != X.shape[:1]:
        raise ValidationError(f"{X.shape[0]} rows but targets of shape {Y.shape}")
    if Y.size == 0:
        raise ValidationError("empty training data")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValidationError("non-finite training values")
    return X, Y


@dataclass
class ScalerState:
    """Per-column standardization statistics. Population (1/n) variance is used
    so an alternate implementation can match bit-for-bit; constant columns are
    flagged and passed through unscaled."""

    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool mask

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist(),
                "constant": self.constant.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerState":
        state = cls(**parse(d, SCALER))
        if not state.means.size == state.stds.size == state.constant.size:
            raise ValidationError("'means', 'stds' and 'constant' must be lists of one length")
        if not np.all(state.stds > 0):
            raise ValidationError("'stds' must be > 0")
        return state


SCALER = {"means": array(np.float64, 1), "stds": array(np.float64, 1), "constant": array(bool, 1)}


def fit_scaler(values: np.ndarray) -> ScalerState:
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValidationError("scaler needs at least 2 rows")
    means = values.mean(axis=0)
    stds = values.std(axis=0)  # population (ddof=0)
    constant = stds == 0.0
    safe = np.where(constant, 1.0, stds)
    return ScalerState(means=np.where(constant, 0.0, means), stds=safe, constant=constant)


def apply_scaler(state: ScalerState, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return (values - state.means) / state.stds


def cap_target(samples: list[CorrosionSample], threshold: float = 100.0,
               mode: str = "drop") -> list[CorrosionSample]:
    """Remove (default) or clip samples whose rate exceeds the threshold.
    The boundary is inclusive: rate == threshold is retained unchanged."""
    if threshold <= 0:
        raise ValidationError("cap threshold must be > 0")
    if mode not in ("drop", "clip"):
        raise ValidationError(f"unknown cap mode {mode!r}")
    if mode == "drop":
        kept = [s for s in samples if s.rate <= threshold]
    else:
        kept = [s if s.rate <= threshold else replace(s, rate=threshold) for s in samples]
    if not kept:
        raise NoSamplesError(f"cap at {threshold} removed every sample")
    return kept


@dataclass
class SplitIndices:
    train: list[int]
    test: list[int]
    seed: int


def split_train_test(n: int, seed: int, test_fraction: float = 0.2) -> SplitIndices:
    """Randomized disjoint split with |test| = round(test_fraction * n)."""
    if n < 2:
        raise ValidationError("need at least 2 rows to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    n_test = int(round(test_fraction * n))
    n_test = min(max(n_test, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(train=sorted(perm[n_test:].tolist()),
                        test=sorted(perm[:n_test].tolist()),
                        seed=seed)

