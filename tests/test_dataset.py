"""Record parsing, unit/grade/composition conversions, synthetic generators."""

import csv
import math

import pytest

from corrml.dataset import (
    ATOMIC_MASS,
    DEFAULT_ENVIRONMENTS,
    ELEMENT_ORDER,
    CorrosionSample,
    Dataset,
    ElementComposition,
    GradeMap,
    at_to_wt,
    convert_rate,
    dataset_from_dict,
    dataset_to_dict,
    generate_inverse_synthetic,
    generate_synthetic,
    parse_csv,
    summary_rows,
    synthetic_clean_rate,
    wt_to_at,
)
from corrml.errors import ValidationError

META = ["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade"]
ENV = DEFAULT_ENVIRONMENTS[0]


def _write_csv(path, rows, elements=("Al", "Zn")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(META + list(elements))
        w.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# domain type invariants


def test_composition_validation():
    with pytest.raises(ValidationError):
        ElementComposition(entries={"Xx": 1.0}, basis="atomic")
    with pytest.raises(ValidationError):
        ElementComposition(entries={"Al": -0.5}, basis="atomic")
    with pytest.raises(ValidationError):
        ElementComposition(entries={"Al": 60.0, "Zn": 41.0}, basis="atomic")
    with pytest.raises(ValidationError):
        ElementComposition(entries={"Al": 100.0}, basis="molar")


@pytest.mark.parametrize("entries, message", [
    ({"Al": 5.0, "Xx": 1.0}, "unsupported element symbol 'Xx'"),
    ({"Xx": 1.0, "Al": math.nan}, "unsupported element symbol 'Xx'"),
    ({"Al": math.nan, "Xx": 1.0}, "element Al: percentage nan must be finite and >= 0"),
    ({"Al": 50.0, "Mg": math.inf}, "element Mg: percentage inf must be finite and >= 0"),
    ({"Al": math.inf, "Mg": -math.inf}, "element Al: percentage inf must be finite and >= 0"),
    ({"Al": 5.0, "Mg": -1e-300}, "element Mg: percentage -1e-300 must be finite and >= 0"),
    ({"Al": 1e308, "Mg": 1e308}, "composition sums to inf > 100"),
    ({"Al": -0.0, "Mg": 5.0}, None),
])
def test_a_composition_refusal_names_its_first_bad_entry(entries, message):
    # the checks run on every CSV row, through a sum-first fast path: a
    # refusal still names the first bad entry in the composition's order
    if message is None:
        assert ElementComposition(entries=entries, basis="atomic").entries == entries
        return
    with pytest.raises(ValidationError) as exc:
        ElementComposition(entries=entries, basis="atomic")
    assert str(exc.value) == message


def test_sample_validation():
    comp = ElementComposition(entries={"Al": 100.0}, basis="atomic")
    with pytest.raises(ValidationError):
        CorrosionSample(id="a", composition=comp, environment=9, rate=1.0)
    with pytest.raises(ValidationError):
        CorrosionSample(id="a", composition=comp, environment=0, rate=-1.0)
    with pytest.raises(ValidationError):
        CorrosionSample(id="a", composition=comp, environment=0, rate=1.0, duration=0.0)


def test_sample_rejects_non_physical_conditions():
    comp = ElementComposition(entries={"Al": 100.0}, basis="atomic")
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValidationError, match="duration"):
            CorrosionSample(id="a", composition=comp, environment=0, rate=1.0, duration=bad)
    for bad in (math.inf, -math.inf, math.nan, -1e308, -273.16):
        with pytest.raises(ValidationError, match="temperature"):
            CorrosionSample(id="a", composition=comp, environment=0, rate=1.0, temperature=bad)
    CorrosionSample(id="a", composition=comp, environment=0, rate=1.0, temperature=-273.15,
                    duration=1e-9)


def test_grade_map_validation():
    GradeMap({"A": 1.0, "B": 5.0, "C": 20.0, "D": 50.0})
    with pytest.raises(ValidationError):
        GradeMap({"A": 1.0, "B": 5.0, "C": 20.0})
    with pytest.raises(ValidationError):
        GradeMap({"A": 1.0, "B": 5.0, "C": 5.0, "D": 50.0})
    with pytest.raises(ValidationError):
        GradeMap({"A": 1.0, "B": 5.0, "C": 20.0, "D": 50.0}).rate_for("E")
    for bad in ("x", True, None, [1.0]):
        with pytest.raises(ValidationError, match="'A'"):
            GradeMap({"A": bad, "B": 5.0, "C": 20.0, "D": 50.0})
    assert GradeMap({"A": 1, "B": 5, "C": 20, "D": 50}).rate_for("B") == 5.0


def test_dataset_rejects_duplicate_ids():
    comp = ElementComposition(entries={"Al": 100.0}, basis="atomic")
    twice = [CorrosionSample(id="s", composition=comp, environment=0, rate=1.0)
             for _ in range(2)]
    with pytest.raises(ValidationError):
        Dataset(samples=twice)


@pytest.mark.parametrize("labels", [DEFAULT_ENVIRONMENTS[:8], DEFAULT_ENVIRONMENTS[::-1],
                                    ("seawater",) * 9])
def test_dataset_takes_only_the_nine_environment_labels(labels):
    with pytest.raises(ValidationError, match="environment labels must be"):
        Dataset(samples=[], environment_names=labels)
    assert Dataset(samples=[], environment_names=list(DEFAULT_ENVIRONMENTS)
                   ).environment_names == DEFAULT_ENVIRONMENTS


# ---------------------------------------------------------------------------
# conversions


def test_convert_rate_definitions():
    assert convert_rate(1.0, "mpy", "mmpy") == 0.0254
    assert convert_rate(100.0, "mpy", "mmpy") == 2.54
    assert convert_rate(2.54, "mmpy", "mpy") == 100.0
    assert convert_rate(0.0, "mmpy", "mpy") == 0.0
    assert convert_rate(7.3, "mpy", "mpy") == 7.3
    with pytest.raises(ValidationError):
        convert_rate(1.0, "mpy", "furlongs")


def test_single_element_conversion_identity():
    at = wt_to_at(ElementComposition(entries={"Al": 100.0}, basis="weight"))
    assert at.basis == "atomic"
    assert at.entries["Al"] == pytest.approx(100.0, abs=1e-12)
    wt = at_to_wt(ElementComposition(entries={"Mg": 100.0}, basis="atomic"))
    assert wt.basis == "weight"
    assert wt.entries["Mg"] == pytest.approx(100.0, abs=1e-12)


def test_wt_to_at_hand_value():
    # 50/50 wt% Al/Mg: mole fractions from M_Al ~26.98, M_Mg ~24.305
    at = wt_to_at(ElementComposition(entries={"Al": 50.0, "Mg": 50.0}, basis="weight"))
    assert at.entries["Al"] == pytest.approx(47.39, abs=0.01)
    assert at.entries["Mg"] == pytest.approx(52.61, abs=0.01)
    back = at_to_wt(at)
    assert back.entries["Al"] == pytest.approx(50.0, abs=0.02)


def test_conversion_round_trip_and_normalization():
    comp = ElementComposition(entries={"Al": 90.0, "Zn": 6.0, "Mg": 4.0}, basis="weight")
    at = wt_to_at(comp)
    assert sum(at.entries.values()) == pytest.approx(100.0, abs=1e-9)
    back = at_to_wt(at)
    for sym, pct in comp.entries.items():
        assert back.entries[sym] == pytest.approx(pct, abs=1e-10)


def test_conversion_preserves_zero_and_rejects_empty():
    at = wt_to_at(ElementComposition(entries={"Al": 99.0, "Cu": 0.0}, basis="weight"))
    assert at.entries["Cu"] == 0.0
    with pytest.raises(ValidationError):
        wt_to_at(ElementComposition(entries={}, basis="weight"))
    with pytest.raises(ValidationError):
        at_to_wt(ElementComposition(entries={"Al": 0.0}, basis="atomic"))


def test_atomic_mass_table_covers_element_order():
    assert len(ELEMENT_ORDER) == 32
    assert set(ELEMENT_ORDER) <= set(ATOMIC_MASS)
    assert all(m > 0 for m in ATOMIC_MASS.values())


# ---------------------------------------------------------------------------
# CSV parsing


def test_parse_csv_rate_grade_and_units(tmp_path):
    path = _write_csv(tmp_path / "ok.csv", [
        ["r1", ENV, "25.0", "30.0", "2.54", "mmpy", "", "95.0", "5.0"],
        ["r2", ENV, "", "", "", "", "B", "95.0", "5.0"],
        ["r3", ENV, "", "", "7.0", "mpy", "D", "95.0", "5.0"],
        ["r4", ENV, "", "", "3.0", "", "", "95.0", "5.0"],
    ])
    ds = parse_csv(path)
    by_id = {s.id: s for s in ds.samples}
    assert by_id["r1"].rate == 100.0              # mmpy converted exactly
    assert by_id["r2"].rate == 5.0                # grade map default B -> 5
    assert by_id["r3"].rate == 7.0                # rate wins over grade
    assert by_id["r4"].rate == 3.0                # missing unit defaults to mpy
    assert by_id["r1"].temperature == 25.0 and by_id["r1"].duration == 30.0
    assert by_id["r2"].temperature is None


def test_parse_csv_weight_units_convert(tmp_path):
    path = _write_csv(tmp_path / "wt.csv",
                      [["r1", ENV, "", "", "1.0", "mpy", "", "50.0", "50.0"]],
                      elements=("Al", "Mg"))
    ds = parse_csv(path, units="wt")
    expected = wt_to_at(ElementComposition(entries={"Al": 50.0, "Mg": 50.0}, basis="weight"))
    assert ds.samples[0].composition.basis == "atomic"
    assert ds.samples[0].composition.entries["Al"] == pytest.approx(
        expected.entries["Al"], abs=1e-12)


def test_parse_csv_aggregates_row_errors(tmp_path):
    path = _write_csv(tmp_path / "bad.csv", [
        ["r1", ENV, "", "", "1.0", "mpy", "", "99.0", "1.0"],
        ["r2", "the-moon", "", "", "1.0", "mpy", "", "99.0", "1.0"],
        ["r3", ENV, "", "", "1.0", "eons", "", "99.0", "1.0"],
        ["r4", ENV, "", "", "", "", "", "99.0", "1.0"],
    ])
    with pytest.raises(ValidationError) as err:
        parse_csv(path)
    message = str(err.value)
    assert "3 invalid row(s)" in message
    assert "row 3" in message and "row 4" in message and "row 5" in message
    assert "row 2" not in message


def test_parse_csv_refuses_a_cell_beyond_the_header(tmp_path):
    # blank cells past the header's last column pass; the csv reader would
    # drop a non-empty one, so its row is refused
    path = _write_csv(tmp_path / "wide.csv", [
        ["a1", ENV, "", "", "1.5", "mpy", "", "95", "5", "", " "],
        ["a2", ENV, "", "", "1.5", "mpy", "", "95", "5", "77"],
        ["a3", ENV, "", "", "1.5", "mpy", "", "95", "5", "", "x"],
    ])
    with pytest.raises(ValidationError) as err:
        parse_csv(path)
    assert str(err.value).splitlines()[1:] == [
        "row 3: cell 10 is beyond the header's 9 cells",
        "row 4: cell 11 is beyond the header's 9 cells"]
    assert len(parse_csv(_write_csv(tmp_path / "blank.csv", [
        ["a1", ENV, "", "", "1.5", "mpy", "", "95", "5", "", " "]]))) == 1


def test_parse_csv_structural_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    with open(missing, "w", newline="") as fh:
        csv.writer(fh).writerows([["id", "env", "rate"], ["a", ENV, "1.0"]])
    with pytest.raises(ValidationError):
        parse_csv(missing)

    unknown = _write_csv(tmp_path / "unknown.csv",
                         [["a", ENV, "", "", "1.0", "mpy", "", "99.0", "1.0"]],
                         elements=("Al", "Unobtanium"))
    with pytest.raises(ValidationError):
        parse_csv(unknown)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError):
        parse_csv(empty)


def test_parse_csv_optional_rate_for_queries(tmp_path):
    path = _write_csv(tmp_path / "q.csv", [
        ["q1", ENV, "", "", "", "", "", "99.0", "1.0"],
    ])
    with pytest.raises(ValidationError):
        parse_csv(path)
    ds = parse_csv(path, require_rate=False)
    assert ds.samples[0].rate == 0.0


def test_parse_csv_strict_composition_floor(tmp_path):
    path = _write_csv(tmp_path / "low.csv", [
        ["r1", ENV, "", "", "1.0", "mpy", "", "80.0", "1.0"],
    ])
    assert len(parse_csv(path)) == 1
    with pytest.raises(ValidationError):
        parse_csv(path, strict_composition=True)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_counts():
    assert summary_rows(Dataset(samples=[]))[1] == ["samples", "0", ""]
    comp = ElementComposition(entries={"Al": 98.0, "Zn": 2.0}, basis="atomic")
    samples = [
        CorrosionSample(id="a", composition=comp, environment=0, rate=1.0, duration=3.0),
        CorrosionSample(id="b", composition=comp, environment=1, rate=1.0, duration=9.0,
                        temperature=20.0),
        CorrosionSample(id="c", composition=comp, environment=2, rate=1.0),
    ]
    rows = summary_rows(Dataset(samples=samples))
    assert rows[:5] == [["name", "count", "max_at_pct"], ["samples", "3", ""],
                        ["with_temperature", "1", ""], ["with_duration", "2", ""],
                        ["with_both", "1", ""]]
    elements = {r[0]: r[1:] for r in rows[5:]}
    assert list(elements) == list(ELEMENT_ORDER)
    assert elements["Zn"] == ["3", "2.0"]
    assert elements["Cu"] == ["0", "0.0"]


def test_summarize_presence_fractions_on_synthetic():
    rows = summary_rows(generate_synthetic(120, seed=3))
    assert rows[2] == ["with_temperature", str(round(164 / 331 * 120)), ""]
    assert rows[3] == ["with_duration", str(round(187 / 331 * 120)), ""]


# ---------------------------------------------------------------------------
# synthetic generators


def test_generate_synthetic_deterministic():
    a = generate_synthetic(40, seed=11)
    b = generate_synthetic(40, seed=11)
    c = generate_synthetic(40, seed=12)
    assert dataset_to_dict(a) == dataset_to_dict(b)
    assert dataset_to_dict(a) != dataset_to_dict(c)


def test_generate_synthetic_noise_free_matches_generator():
    ds = generate_synthetic(60, seed=7, noise=0.0)
    for s in ds.samples:
        assert s.rate == synthetic_clean_rate(s.composition, s.environment)


def test_generate_synthetic_invariants():
    ds = generate_synthetic(80, seed=1)
    assert len({s.id for s in ds.samples}) == 80
    for s in ds.samples:
        assert sum(s.composition.entries.values()) == pytest.approx(100.0, abs=1e-9)
        assert 0 <= s.environment <= 8
        assert math.isfinite(s.rate) and s.rate >= 0
    with pytest.raises(ValidationError):
        generate_synthetic(0, seed=1)


def test_generate_inverse_synthetic_shape():
    n = 100
    ds = generate_inverse_synthetic(n, seed=4)
    n_dur = sum(s.duration is not None for s in ds.samples)
    n_temp = sum(s.temperature is not None for s in ds.samples)
    assert n_dur == round(0.85 * n)
    assert n_temp == round(0.60 * n)
    for s in ds.samples:
        assert 0.2 <= s.rate <= 80.0
        assert sum(s.composition.entries.values()) == pytest.approx(100.0, abs=1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_dataset_dict_round_trip():
    ds = generate_synthetic(25, seed=9)
    payload = dataset_to_dict(ds)
    back = dataset_from_dict(payload)
    assert dataset_to_dict(back) == payload
    assert back.environment_names == ds.environment_names
    assert back.samples[3].temperature == ds.samples[3].temperature
    with pytest.raises(ValidationError):
        dataset_from_dict({"kind": "something-else", "samples": []})
