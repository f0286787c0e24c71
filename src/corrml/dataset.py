"""Corrosion records: ingestion, validation, unit/grade/composition conversions,
and a schema-compatible synthetic generator.

Compositions are maps from element symbol to percentage on either a weight or an
atomic basis. A sample's composition is atomic: weight-basis input is converted
before it becomes a sample. The supported element set is fixed (32 symbols); rates
are carried in mils per year (mpy) internally, with 1 mil = 0.0254 mm.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul, truediv

from .csvrows import csv_rows
from .errors import ValidationError
from .schema import NUMBER, STRING, Fault, clipped, finite, integer, parse, rule, shown

log = logging.getLogger(__name__)

# Canonical element order used everywhere a composition becomes a feature row.
ELEMENT_ORDER = (
    "Al", "Mg", "Si", "Zn", "Li", "Ti", "Ni", "Cu",
    "As", "Au", "B", "C", "Ca", "Cd", "Co", "Ga",
    "Hf", "In", "Mo", "Nb", "O", "Pb", "P", "S",
    "Sn", "Th", "V", "W", "Zr", "Fe", "Mn", "Cr",
)

# Standard atomic weights (CIAAW, conventional values for interval elements).
ATOMIC_MASS = {
    "Al": 26.9815384, "Mg": 24.305, "Si": 28.085, "Zn": 65.38,
    "Li": 6.94, "Ti": 47.867, "Ni": 58.6934, "Cu": 63.546,
    "As": 74.921595, "Au": 196.96657, "B": 10.81, "C": 12.011,
    "Ca": 40.078, "Cd": 112.414, "Co": 58.933194, "Ga": 69.723,
    "Hf": 178.486, "In": 114.818, "Mo": 95.95, "Nb": 92.90637,
    "O": 15.999, "Pb": 207.2, "P": 30.973762, "S": 32.06,
    "Sn": 118.710, "Th": 232.0377, "V": 50.9415, "W": 183.84,
    "Zr": 91.224, "Fe": 55.845, "Mn": 54.938043, "Cr": 51.9961,
}

# Shipped convention for letter-grade -> representative rate (mpy). Not ground
# truth: the source databases describe grades qualitatively, so the mapping is
# configuration. A is excellent resistance, D minimal.
DEFAULT_GRADE_MAP = {"A": 1.0, "B": 5.0, "C": 20.0, "D": 50.0}

# Nine environment categories, stored in lexicographic order so that the
# category id of a label is stable across runs.
DEFAULT_ENVIRONMENTS = (
    "acidic-solution",
    "brackish-water",
    "distilled-water",
    "fresh-water",
    "humid-air",
    "marine-atmosphere",
    "salt-spray",
    "seawater",
    "sodium-chloride-solution",
)

MPY_PER_MM = 0.0254  # 1 mil = 0.0254 mm, exact by unit definition
ABSOLUTE_ZERO_C = -273.15

CSV_META_COLUMNS = ("id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade")
_LISTED_PROBLEMS = 20  # bad rows a CSV refusal names; the rest it counts

COMPOSITION_SUM_SLACK = 1e-6


def _checked_total(entries: dict[str, float]) -> float:
    """The sum of a composition's percentages, in order, each a supported
    element's, finite and >= 0; a sum over 100 is refused."""
    total = sum(entries.values())  # finite unless an entry is not
    if not (math.isfinite(total) and min(entries.values(), default=0.0) >= 0
            and entries.keys() <= ATOMIC_MASS.keys()):  # then name the first bad entry
        for symbol, pct in entries.items():
            if symbol not in ATOMIC_MASS:
                raise ValidationError(f"unsupported element symbol {shown(symbol)}")
            if not math.isfinite(pct) or pct < 0:
                raise ValidationError(
                    f"element {symbol}: percentage {pct!r} must be finite and >= 0")
    if total > 100.0 + COMPOSITION_SUM_SLACK:
        raise ValidationError(f"composition sums to {total:.6f} > 100")
    return total


def _check_sample(sample_id: str, environment: int, rate: float, temperature: float | None,
                  duration: float | None) -> None:
    """Refuse an environment id outside 0-8, a rate not finite and >= 0, or
    a present duration or temperature out of range."""
    if not (0 <= environment <= 8):
        raise ValidationError(f"sample {clipped(sample_id)}: environment id {environment} "
                              "outside 0-8")
    if not math.isfinite(rate) or rate < 0:
        raise ValidationError(f"sample {clipped(sample_id)}: rate {rate!r} must be finite and >= 0")
    if duration is not None and not (math.isfinite(duration) and duration > 0):
        raise ValidationError(
            f"sample {clipped(sample_id)}: duration {duration!r} must be finite and > 0 when "
            "present")
    if temperature is not None and not (math.isfinite(temperature)
                                        and temperature >= ABSOLUTE_ZERO_C):
        raise ValidationError(
            f"sample {clipped(sample_id)}: temperature {temperature!r} must be finite and "
            f">= {ABSOLUTE_ZERO_C} C when present")


@dataclass
class ElementComposition:
    """Element -> percentage map on a declared basis ("weight" or "atomic")."""

    entries: dict[str, float]
    basis: str

    def __post_init__(self):
        if self.basis not in ("weight", "atomic"):
            raise ValidationError(f"unknown composition basis {self.basis!r}")
        _checked_total(self.entries)

    def get(self, symbol: str) -> float:
        return self.entries.get(symbol, 0.0)


@dataclass
class CorrosionSample:
    """One alloy corrosion record. Rate is mils/year; composition atomic basis."""

    id: str
    composition: ElementComposition
    environment: int
    rate: float
    temperature: float | None = None
    duration: float | None = None

    def __post_init__(self):
        if self.composition.basis != "atomic":
            raise ValidationError(f"sample {clipped(self.id)}: composition basis must be 'atomic', "
                                  f"got {self.composition.basis!r}")
        _check_sample(self.id, self.environment, self.rate, self.temperature, self.duration)


@dataclass
class GradeMap:
    """Letter grade -> representative corrosion rate (mpy), strictly increasing A..D."""

    mapping: dict[str, float]

    def __post_init__(self):
        for grade, rate in self.mapping.items():
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValidationError(f"grade map rate of {shown(grade)} must be a number, "
                                      f"got {shown(rate)}")
        self.mapping = {grade: float(rate) for grade, rate in self.mapping.items()}
        expected = ("A", "B", "C", "D")
        if tuple(sorted(self.mapping)) != expected:
            raise ValidationError("grade map must define exactly the grades A, B, C, D")
        rates = [self.mapping[g] for g in expected]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValidationError("grade map rates must strictly increase from A to D")

    def rate_for(self, grade: str) -> float:
        if grade not in self.mapping:
            raise ValidationError(f"unknown grade letter {shown(grade)}")
        return self.mapping[grade]


@dataclass
class Dataset:
    samples: list[CorrosionSample]
    environment_names: tuple[str, ...] = DEFAULT_ENVIRONMENTS

    def __post_init__(self):
        if tuple(self.environment_names) != DEFAULT_ENVIRONMENTS:
            raise ValidationError(f"environment labels must be {list(DEFAULT_ENVIRONMENTS)}")
        self.environment_names = DEFAULT_ENVIRONMENTS
        first: dict[str, int] = {}  # sample id -> the position it first holds
        for i, s in enumerate(self.samples):
            if first.setdefault(s.id, i) != i:
                raise Fault(f"duplicate sample id {shown(s.id)} "
                            f"(first at ['samples'][{first[s.id]}])",
                            path=("samples", i, "id"))

    def __len__(self) -> int:
        return len(self.samples)


def convert_rate(value: float, unit_from: str, unit_to: str) -> float:
    """Convert a corrosion rate between mils/year and mm/year (1 mil = 0.0254 mm)."""
    for unit in (unit_from, unit_to):
        if unit not in ("mpy", "mmpy"):
            raise ValidationError(f"unknown rate unit {shown(unit)}")
    if unit_from == unit_to:
        return value
    if unit_from == "mpy":
        return value * MPY_PER_MM
    return value / MPY_PER_MM


def _per_hundred(entries: dict[str, float], weigh) -> dict[str, float]:
    """Each entry's `weigh(pct, atomic mass)`, scaled to sum to 100:
    `truediv` takes weight to atomic percent, `mul` atomic to weight."""
    if not entries:
        raise ValidationError("empty composition")
    amounts = {sym: weigh(pct, ATOMIC_MASS[sym]) for sym, pct in entries.items()}
    total = sum(amounts.values())
    if total == 0.0:
        raise ValidationError("all-zero composition")
    return {sym: m / total * 100.0 for sym, m in amounts.items()}


def wt_to_at(c: ElementComposition) -> ElementComposition:
    """Weight -> atomic percent over the listed elements; output sums to 100."""
    if c.basis != "weight":
        raise ValidationError(f"expected weight basis, got {c.basis!r}")
    return ElementComposition(entries=_per_hundred(c.entries, truediv), basis="atomic")


def at_to_wt(c: ElementComposition) -> ElementComposition:
    """Atomic -> weight percent; inverse of wt_to_at on normalized compositions."""
    if c.basis != "atomic":
        raise ValidationError(f"expected atomic basis, got {c.basis!r}")
    return ElementComposition(entries=_per_hundred(c.entries, mul), basis="weight")


def parse_csv(path, **options) -> Dataset:
    """Read corrosion records from CSV: the dataset of `csv_samples(path,
    **options)`."""
    return Dataset(samples=list(csv_samples(path, **options)))


_ENV_IDS = {name: i for i, name in enumerate(DEFAULT_ENVIRONMENTS)}


def table_row(slots: dict[str, int], entries: dict[str, float], environment: int, rate: float,
              temperature: float | None, duration: float | None) -> list[float]:
    """A sample's row of the table whose field `name` is at `slots[name]`:
    an element symbol's at% (0.0 when `entries` lacks it), "env" (the
    environment id), "rate" (mpy), and "temp" and "dur", NaN when absent."""
    row = [0.0] * len(slots)
    for items in (entries.items(), (("env", float(environment)), ("rate", rate),
                                    ("temp", math.nan if temperature is None else temperature),
                                    ("dur", math.nan if duration is None else duration))):
        for name, value in items:
            if name in slots:
                row[slots[name]] = value
    return row


def csv_samples(path, units: str = "at", grade_map: GradeMap | None = None,
                strict_composition: bool = False, composition_floor: float = 95.0,
                require_rate: bool = True) -> Iterator[CorrosionSample]:
    """The samples of `csv_records`' rows, each built as its line is read; a
    composition lists its nonzero elements in header order."""
    elements, records = csv_records(path, None, units, grade_map, strict_composition,
                                    composition_floor, require_rate)
    for sample_id, (env, rate, temp, dur, *pcts) in records:
        entries = {e: pct for e, pct in zip(elements, pcts) if pct}
        yield CorrosionSample(sample_id, ElementComposition(entries, "atomic"), int(env), rate,
                              None if math.isnan(temp) else temp, None if math.isnan(dur) else dur)


def csv_records(path, fields=None, units="at", grade_map=None, strict_composition=False,
                composition_floor=95.0, require_rate=True) -> tuple[list[str], Iterator]:
    """(elements, records) of a CSV file, its header checked by the call: the
    element symbols the header names, in order, and the (id, row) of each
    record, yielded as its line is read, `row` its `table_row` in the layout
    of `fields` (None: "env", "rate", "temp", "dur" and those elements).

    Header: ``id, env, temp_c, duration_days, rate, rate_unit, grade`` plus one
    column per element symbol, holding percentages in the declared basis
    (``units`` is "wt" or "at"), each column named once. Empty cells are
    allowed only for temp_c, duration_days, the rate-or-grade pair, and
    element columns (default 0); a cell past the header's last column must be empty.
    All row-level failures, a sample id already read on an earlier row among
    them, are collected and raised together once the last row is read: their
    count, then the first 20 with their row numbers, then how many more there
    are. So a caller keeps what it takes from the records only once the
    iteration ends without an error.

    ``require_rate=False`` admits rows with neither rate nor grade (they get a
    0.0 placeholder), for prediction inputs where the rate is the unknown.
    """
    if units not in ("wt", "at"):
        raise ValidationError(f"units must be 'wt' or 'at', got {shown(units)}")
    rows = csv_rows(path)
    header = [h.strip() for h in next(rows, [])]  # an empty file lacks every column
    for col in CSV_META_COLUMNS:
        if col not in header:
            raise ValidationError(f"{path}: missing required column {col!r}")
    elements = [h for h in header if h not in CSV_META_COLUMNS]
    unknown = [h for h in elements if h not in ATOMIC_MASS]
    if unknown:
        raise ValidationError(f"{path}: unknown element columns {shown(unknown)}")
    for i, name in enumerate(header):
        if header.index(name) != i:
            raise ValidationError(f"{path}: column {shown(name)} appears more than once")
    cells = {name: i for i, name in enumerate(header)}
    fields = fields or ("env", "rate", "temp", "dur", *elements)
    # where `_parse_row` reads a row's cells, and the row position of each field
    layout = (cells, [(h, cells[h], f"element {h}") for h in elements],
              {f: j for j, f in enumerate(fields)})
    options = (units, grade_map or GradeMap(DEFAULT_GRADE_MAP), strict_composition,
               composition_floor, require_rate)

    def records():
        problems, skipped = [], 0  # the refusals, and the rows read that yielded no record
        # each yielded id, UTF-8, -> the rows skipped before it: a small int
        # rows share, where each row's own number would be one more object
        seen: dict[bytes, int] = {}
        for row_no, row in enumerate(rows, start=2):
            row = [cell.strip() for cell in row]
            if not any(row):
                skipped += 1
                continue
            try:
                if any(row[len(header):]):
                    beyond = next(i for i in range(len(header), len(row)) if row[i]) + 1
                    raise ValidationError(
                        f"cell {beyond} is beyond the header's {len(header)} cells")
                row += [""] * (len(header) - len(row))  # a short row's missing cells are empty
                sample_id, values = _parse_row(row, layout, *options)
                key = sample_id.encode()
                if key in seen:  # a listed refusal names its row: 2 + skips + records before
                    first = (2 + seen[key] + next(k for k, other in enumerate(seen) if other == key)
                             if len(problems) < _LISTED_PROBLEMS else None)
                    raise ValidationError(
                        f"duplicate sample id {shown(sample_id)} (first on row {first})")
            except ValidationError as exc:
                problems.append(f"row {row_no}: {exc}")
                skipped += 1
                continue
            seen[key] = skipped
            yield sample_id, values
        if problems:
            more = len(problems) - _LISTED_PROBLEMS
            listed = problems[:_LISTED_PROBLEMS] + ([f"… and {more} more"] if more > 0 else [])
            raise ValidationError(f"{path}: {len(problems)} invalid row(s)\n" + "\n".join(listed))

    return elements, records()


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"unparseable numeric cell {shown(text)} for {what}") from None


def _parse_row(row, layout, units, grade_map, strict_composition, composition_floor,
               require_rate) -> tuple[str, list[float]]:
    """(id, row): the sample id of a row's cells, stripped and one per
    header column, and, once they pass every check of a sample, its
    `table_row`; wt% become at% over the row's elements, in header order."""
    cells, elements, slots = layout
    sample_id = row[cells["id"]]
    if not sample_id:
        raise ValidationError("empty id")

    environment = _ENV_IDS.get(row[cells["env"]])
    if environment is None:
        raise ValidationError(f"unknown environment label {shown(row[cells['env']])}")

    entries = {}
    for sym, at, what in elements:
        text = row[at]
        value = _parse_float(text, what) if text else 0.0
        if value != 0.0:
            entries[sym] = value
    total = _checked_total(entries)
    if strict_composition and total < composition_floor:
        raise ValidationError(f"composition sums to {total:.4f} < floor {composition_floor}")
    if units == "wt":
        entries = _per_hundred(entries, truediv)

    rate_text, grade_text = row[cells["rate"]], row[cells["grade"]]
    if rate_text:
        rate, unit = _parse_float(rate_text, "rate"), row[cells["rate_unit"]] or "mpy"
        rate = rate if unit == "mpy" else convert_rate(rate, unit, "mpy")
        if grade_text:
            log.info("sample %s: both rate and grade present; using rate", sample_id)
    elif grade_text:
        rate = grade_map.rate_for(grade_text)
    elif require_rate:
        raise ValidationError("neither rate nor grade present")
    else:
        rate = 0.0
    if rate < 0:
        raise ValidationError(f"negative rate {rate}")

    temp_text, dur_text = row[cells["temp_c"]], row[cells["duration_days"]]
    temperature = _parse_float(temp_text, "temp_c") if temp_text else None
    duration = _parse_float(dur_text, "duration_days") if dur_text else None
    _check_sample(sample_id, environment, rate, temperature, duration)
    return sample_id, table_row(slots, entries, environment, rate, temperature, duration)


def dataset_to_dict(d: Dataset) -> dict:
    """JSON-ready payload; inverse of dataset_from_dict."""
    return {
        "kind": "corrosion-dataset",
        "environment_names": list(d.environment_names),
        "samples": [
            {
                "id": s.id,
                "environment": s.environment,
                "rate": s.rate,
                "temperature": s.temperature,
                "duration": s.duration,
                "composition": {"basis": s.composition.basis,
                                "entries": dict(s.composition.entries)},
            }
            for s in d.samples
        ],
    }


_ENTRIES = rule("an object of finite numbers",
                lambda v: isinstance(v, dict) and all(map(finite, v.values())),
                lambda v: {symbol: float(pct) for symbol, pct in v.items()})
# temperature and duration may be absent or null
_SAMPLE = {"id": STRING, "environment": integer(0), "rate": NUMBER,
           "temperature?": (None, NUMBER), "duration?": (None, NUMBER),
           "composition": {"basis": STRING, "entries": _ENTRIES}}


def _sample(d: dict) -> CorrosionSample:
    """The sample a dataset file's record holds, built as the walk reaches it."""
    s = parse(d, _SAMPLE)
    return CorrosionSample(**{**s, "composition": ElementComposition(**s["composition"])})


DATASET = {"kind": "corrosion-dataset", "environment_names": list(DEFAULT_ENVIRONMENTS),
           "samples": [_sample]}


def dataset_from_dict(payload: dict) -> Dataset:
    """The dataset a payload holds; inverse of dataset_to_dict."""
    return Dataset(**parse(payload, DATASET))


def summary_rows(d: Dataset) -> list[list[str]]:
    """`ingest`'s summary.csv rows (with header): counts of samples and of
    optional fields, then each element's nonzero count and maximum at%."""
    counts = dict.fromkeys(ELEMENT_ORDER, 0)
    maxima = dict.fromkeys(ELEMENT_ORDER, 0.0)
    n_temp = n_dur = n_both = 0
    for s in d.samples:
        for sym, pct in s.composition.entries.items():
            if pct > 0:
                counts[sym] += 1
                maxima[sym] = max(maxima[sym], pct)
        has_t = s.temperature is not None
        has_d = s.duration is not None
        n_temp += has_t
        n_dur += has_d
        n_both += has_t and has_d
    return ([["name", "count", "max_at_pct"], ["samples", str(len(d.samples)), ""],
             ["with_temperature", str(n_temp), ""], ["with_duration", str(n_dur), ""],
             ["with_both", str(n_both), ""]]
            + [[sym, str(counts[sym]), repr(maxima[sym])] for sym in ELEMENT_ORDER])


# ---------------------------------------------------------------------------
# Synthetic data
#
# The real curated dataset is not redistributable, so tests and demos run on a
# generator that reproduces its schema. The forward generating function below
# is the documented ground truth that noise-free runs must reproduce exactly.

_SYN_POOL = ("Zn", "Mg", "Cu", "Si", "Fe", "Ni", "Mn", "Cr", "Ti", "Sn")
_SYN_MAX_AT = {"Zn": 8.0, "Mg": 6.0, "Cu": 6.0, "Si": 5.0, "Fe": 4.0,
               "Ni": 4.0, "Mn": 1.5, "Cr": 3.0, "Ti": 1.2, "Sn": 2.0}

# log-rate coefficients per at% of each alloying element
_SYN_COEF = {"Zn": 0.28, "Cu": 0.35, "Mg": 0.12, "Fe": 0.40, "Ni": -0.20,
             "Si": -0.10, "Mn": 0.15, "Cr": -0.55, "Ti": -0.30, "Sn": 0.22}
_SYN_ENV_OFFSET = (0.9, 0.3, -1.2, -0.8, -1.6, 0.1, 0.6, 0.8, 0.5)
_SYN_BASE = 0.2


def synthetic_clean_rate(composition: ElementComposition, environment: int) -> float:
    """Noise-free generating function behind generate_synthetic (mpy).

    ln(rate) = base + sum_e coef_e * at%_e + env_offset + 0.8*tanh((Zn-4)/3)
    over the alloying pool; Al acts as inert balance.
    """
    z = _SYN_BASE + _SYN_ENV_OFFSET[environment]
    for sym, coef in _SYN_COEF.items():
        z += coef * composition.get(sym)
    z += 0.8 * math.tanh((composition.get("Zn") - 4.0) / 3.0)
    return math.exp(z)


def generate_synthetic(
    n: int,
    seed: int,
    noise: float = 0.2,
) -> Dataset:
    """Schema-compatible synthetic dataset, deterministic in seed.

    Compositions are Al-balanced with 2-5 alloying elements; environments are
    uniform over the 9 categories; rate is synthetic_clean_rate times
    exp(noise * N(0,1)), i.e. log-normal multiplicative noise with median 1.
    Temperature and duration are present for the paper's share of samples,
    164 and 187 of 331.
    """
    import numpy as np  # deferred: ingest, which never generates data, loads no numpy

    if n <= 0:
        raise ValidationError("n must be > 0")
    rng = np.random.default_rng(seed)

    envs = rng.integers(0, 9, size=n)
    n_alloy = rng.integers(2, 6, size=n)
    pool_picks = [rng.choice(len(_SYN_POOL), size=k, replace=False) for k in n_alloy]
    fractions = rng.random(size=(n, 5))
    noise_z = rng.standard_normal(n)

    temp_rows = set(rng.permutation(n)[:round(n * (164 / 331))].tolist())
    dur_rows = set(rng.permutation(n)[:round(n * (187 / 331))].tolist())
    temps = rng.uniform(5.0, 95.0, size=n)
    durs = rng.uniform(1.0, 365.0, size=n)

    samples = []
    for i in range(n):
        entries = {}
        for j, pick in enumerate(pool_picks[i]):
            sym = _SYN_POOL[pick]
            entries[sym] = fractions[i, j] * _SYN_MAX_AT[sym]
        entries["Al"] = 100.0 - sum(entries.values())
        comp = ElementComposition(entries=entries, basis="atomic")
        rate = synthetic_clean_rate(comp, int(envs[i]))
        if noise:
            rate *= math.exp(noise * noise_z[i])
        samples.append(CorrosionSample(
            id=f"syn-{i:04d}",
            composition=comp,
            environment=int(envs[i]),
            rate=rate,
            temperature=float(temps[i]) if i in temp_rows else None,
            duration=float(durs[i]) if i in dur_rows else None,
        ))
    return Dataset(samples=samples)


def inverse_synthetic_targets(rate: float, environment: int,
                              al: float, si: float, mg: float) -> dict[str, float]:
    """Deterministic trace-element targets used by generate_inverse_synthetic.

    Smooth functions of the base inverse features (rate, env id, Al/Si/Mg at%);
    all outputs are positive and the total composition stays below 100 at%.
    """
    lr = math.log(rate)
    sat = 2.0 * math.tanh(lr / 2.0)  # saturating log-rate keeps targets in range
    return {
        "Zn": 4.0 + 3.0 * math.tanh((lr - 1.0) / 1.5) + 0.20 * environment,
        "Ti": 0.30 + 0.08 * environment + 0.006 * al,
        "Ni": 2.2 + 0.45 * sat + 0.12 * mg,
        "Cu": 1.5 + 0.05 * al + 0.25 * si - 0.35 * math.tanh(lr),
        "Fe": 3.0 + 1.2 * math.sin(lr) + 0.08 * si,
        "Mn": 0.25 + 0.04 * environment + 0.10 * math.tanh(mg - 3.0) + 0.05 * sat,
    }


def generate_inverse_synthetic(n: int, seed: int) -> Dataset:
    """Synthetic dataset whose six trace-element targets (Zn, Ti, Ni, Cu, Fe, Mn)
    are deterministic functions of the base inverse features; Cr is the balance.

    Duration is present for ~85% of rows and temperature for ~60%, so all three
    inverse submodel subsets are populated.
    """
    import numpy as np

    if n <= 0:
        raise ValidationError("n must be > 0")
    rng = np.random.default_rng(seed)

    rates = np.exp(rng.uniform(math.log(0.2), math.log(80.0), size=n))
    envs = rng.integers(0, 9, size=n)
    als = rng.uniform(30.0, 55.0, size=n)
    sis = rng.uniform(0.0, 6.0, size=n)
    mgs = rng.uniform(0.0, 8.0, size=n)
    dur_rows = set(rng.permutation(n)[:round(0.85 * n)].tolist())
    temp_rows = set(rng.permutation(n)[:round(0.60 * n)].tolist())
    temps = rng.uniform(5.0, 95.0, size=n)
    durs = rng.uniform(1.0, 365.0, size=n)

    samples = []
    for i in range(n):
        targets = inverse_synthetic_targets(float(rates[i]), int(envs[i]),
                                            float(als[i]), float(sis[i]), float(mgs[i]))
        entries = {"Al": float(als[i]), "Si": float(sis[i]), "Mg": float(mgs[i]), **targets}
        entries["Cr"] = 100.0 - sum(entries.values())
        samples.append(CorrosionSample(
            id=f"inv-{i:04d}",
            composition=ElementComposition(entries=entries, basis="atomic"),
            environment=int(envs[i]),
            rate=float(rates[i]),
            temperature=float(temps[i]) if i in temp_rows else None,
            duration=float(durs[i]) if i in dur_rows else None,
        ))
    return Dataset(samples=samples)
