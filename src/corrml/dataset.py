"""Corrosion records: ingestion, validation, unit/grade/composition conversions,
and a schema-compatible synthetic generator.

Compositions are maps from element symbol to percentage on either a weight or an
atomic basis. A sample's composition is atomic: weight-basis input is converted
before it becomes a sample. The supported element set is fixed (32 symbols); rates
are carried in mils per year (mpy) internally, with 1 mil = 0.0254 mm.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

from .errors import ValidationError
from .schema import NUMBER, STRING, finite, integer, parse, rule

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

COMPOSITION_SUM_SLACK = 1e-6


@dataclass
class ElementComposition:
    """Element -> percentage map on a declared basis ("weight" or "atomic")."""

    entries: dict[str, float]
    basis: str

    def __post_init__(self):
        if self.basis not in ("weight", "atomic"):
            raise ValidationError(f"unknown composition basis {self.basis!r}")
        for symbol, pct in self.entries.items():
            if symbol not in ATOMIC_MASS:
                raise ValidationError(f"unsupported element symbol {symbol!r}")
            if not math.isfinite(pct) or pct < 0:
                raise ValidationError(f"element {symbol}: percentage {pct!r} must be finite and >= 0")
        if self.total() > 100.0 + COMPOSITION_SUM_SLACK:
            raise ValidationError(f"composition sums to {self.total():.6f} > 100")

    def total(self) -> float:
        return sum(self.entries.values())

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
            raise ValidationError(f"sample {self.id}: composition basis must be 'atomic', "
                                  f"got {self.composition.basis!r}")
        if not (0 <= self.environment <= 8):
            raise ValidationError(f"sample {self.id}: environment id {self.environment} outside 0-8")
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValidationError(f"sample {self.id}: rate {self.rate!r} must be finite and >= 0")
        if self.duration is not None and not (math.isfinite(self.duration) and self.duration > 0):
            raise ValidationError(
                f"sample {self.id}: duration {self.duration!r} must be finite and > 0 when present")
        if self.temperature is not None and not (math.isfinite(self.temperature)
                                                 and self.temperature >= ABSOLUTE_ZERO_C):
            raise ValidationError(
                f"sample {self.id}: temperature {self.temperature!r} must be finite and "
                f">= {ABSOLUTE_ZERO_C} C when present")


@dataclass
class GradeMap:
    """Letter grade -> representative corrosion rate (mpy), strictly increasing A..D."""

    mapping: dict[str, float]

    def __post_init__(self):
        for grade, rate in self.mapping.items():
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValidationError(f"grade map rate of {grade!r} must be a number, "
                                      f"got {rate!r}")
        self.mapping = {grade: float(rate) for grade, rate in self.mapping.items()}
        expected = ("A", "B", "C", "D")
        if tuple(sorted(self.mapping)) != expected:
            raise ValidationError("grade map must define exactly the grades A, B, C, D")
        rates = [self.mapping[g] for g in expected]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValidationError("grade map rates must strictly increase from A to D")

    def rate_for(self, grade: str) -> float:
        if grade not in self.mapping:
            raise ValidationError(f"unknown grade letter {grade!r}")
        return self.mapping[grade]


@dataclass
class Dataset:
    samples: list[CorrosionSample]
    environment_names: tuple[str, ...] = DEFAULT_ENVIRONMENTS

    def __post_init__(self):
        self.environment_names = tuple(self.environment_names)
        if len(self.environment_names) != 9:
            raise ValidationError(f"expected 9 environment categories, got {len(self.environment_names)}")
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise ValidationError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
            if s.environment >= len(self.environment_names):
                raise ValidationError(f"sample {s.id}: environment id {s.environment} has no label")

    def __len__(self) -> int:
        return len(self.samples)


def convert_rate(value: float, unit_from: str, unit_to: str) -> float:
    """Convert a corrosion rate between mils/year and mm/year (1 mil = 0.0254 mm)."""
    for unit in (unit_from, unit_to):
        if unit not in ("mpy", "mmpy"):
            raise ValidationError(f"unknown rate unit {unit!r}")
    if unit_from == unit_to:
        return value
    if unit_from == "mpy":
        return value * MPY_PER_MM
    return value / MPY_PER_MM


def wt_to_at(c: ElementComposition) -> ElementComposition:
    """Weight -> atomic percent over the listed elements; output sums to 100."""
    if c.basis != "weight":
        raise ValidationError(f"expected weight basis, got {c.basis!r}")
    if not c.entries:
        raise ValidationError("empty composition")
    moles = {sym: pct / ATOMIC_MASS[sym] for sym, pct in c.entries.items()}
    total = sum(moles.values())
    if total == 0.0:
        raise ValidationError("all-zero composition")
    entries = {sym: m / total * 100.0 for sym, m in moles.items()}
    return ElementComposition(entries=entries, basis="atomic")


def at_to_wt(c: ElementComposition) -> ElementComposition:
    """Atomic -> weight percent; inverse of wt_to_at on normalized compositions."""
    if c.basis != "atomic":
        raise ValidationError(f"expected atomic basis, got {c.basis!r}")
    if not c.entries:
        raise ValidationError("empty composition")
    masses = {sym: pct * ATOMIC_MASS[sym] for sym, pct in c.entries.items()}
    total = sum(masses.values())
    if total == 0.0:
        raise ValidationError("all-zero composition")
    entries = {sym: m / total * 100.0 for sym, m in masses.items()}
    return ElementComposition(entries=entries, basis="weight")


def parse_csv(
    path,
    units: str = "at",
    grade_map: GradeMap | None = None,
    strict_composition: bool = False,
    composition_floor: float = 95.0,
    require_rate: bool = True,
) -> Dataset:
    """Read corrosion records from CSV.

    Header: ``id, env, temp_c, duration_days, rate, rate_unit, grade`` plus one
    column per element symbol, holding percentages in the declared basis
    (``units`` is "wt" or "at"). Empty cells are allowed only for temp_c,
    duration_days, the rate-or-grade pair, and element columns (default 0).
    All row-level failures, a sample id already read on an earlier row among
    them, are collected and raised together with row numbers.

    ``require_rate=False`` admits rows with neither rate nor grade (they get a
    0.0 placeholder), for prediction inputs where the rate is the unknown.
    """
    if units not in ("wt", "at"):
        raise ValidationError(f"units must be 'wt' or 'at', got {units!r}")
    if grade_map is None:
        grade_map = GradeMap(DEFAULT_GRADE_MAP)
    env_ids = {name: i for i, name in enumerate(DEFAULT_ENVIRONMENTS)}

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in CSV_META_COLUMNS:
            if col not in header:
                raise ValidationError(f"{path}: missing required column {col!r}")
        element_cols = [h for h in header if h not in CSV_META_COLUMNS]
        unknown = [h for h in element_cols if h not in ATOMIC_MASS]
        if unknown:
            raise ValidationError(f"{path}: unknown element columns {unknown}")
        idx = {name: header.index(name) for name in header}

        samples = []
        problems: list[str] = []
        first_row: dict[str, int] = {}  # sample id -> the row it was first read on
        for row_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            try:
                sample = _parse_row(row, idx, element_cols, units, grade_map, env_ids,
                                    strict_composition, composition_floor, require_rate)
            except ValidationError as exc:
                problems.append(f"row {row_no}: {exc}")
                continue
            if sample.id in first_row:
                problems.append(f"row {row_no}: duplicate sample id {sample.id!r} "
                                f"(first on row {first_row[sample.id]})")
                continue
            first_row[sample.id] = row_no
            samples.append(sample)
        if problems:
            raise ValidationError(f"{path}: {len(problems)} invalid row(s)\n" + "\n".join(problems))

    return Dataset(samples=samples)


def _cell(row: list[str], i: int) -> str:
    return row[i].strip() if i < len(row) else ""


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"unparseable numeric cell {text!r} for {what}") from None


def _parse_row(row, idx, element_cols, units, grade_map, env_ids,
               strict_composition, composition_floor, require_rate) -> CorrosionSample:
    sample_id = _cell(row, idx["id"])
    if not sample_id:
        raise ValidationError("empty id")

    env_label = _cell(row, idx["env"])
    if env_label not in env_ids:
        raise ValidationError(f"unknown environment label {env_label!r}")

    entries = {}
    for sym in element_cols:
        text = _cell(row, idx[sym])
        value = _parse_float(text, f"element {sym}") if text else 0.0
        if value != 0.0:
            entries[sym] = value
    comp = ElementComposition(entries=entries, basis="weight" if units == "wt" else "atomic")
    if strict_composition and comp.total() < composition_floor:
        raise ValidationError(f"composition sums to {comp.total():.4f} < floor {composition_floor}")
    if units == "wt":
        comp = wt_to_at(comp)

    rate_text = _cell(row, idx["rate"])
    grade_text = _cell(row, idx["grade"])
    if rate_text:
        unit = _cell(row, idx["rate_unit"]) or "mpy"
        rate = convert_rate(_parse_float(rate_text, "rate"), unit, "mpy")
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

    temp_text = _cell(row, idx["temp_c"])
    dur_text = _cell(row, idx["duration_days"])
    return CorrosionSample(
        id=sample_id,
        composition=comp,
        environment=env_ids[env_label],
        rate=rate,
        temperature=_parse_float(temp_text, "temp_c") if temp_text else None,
        duration=_parse_float(dur_text, "duration_days") if dur_text else None,
    )


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
    return Dataset(samples=samples, environment_names=DEFAULT_ENVIRONMENTS)


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
    return Dataset(samples=samples, environment_names=DEFAULT_ENVIRONMENTS)
