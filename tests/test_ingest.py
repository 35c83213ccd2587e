"""Panel CSV loading, sample construction with the exclusion ledger,
sector aggregation, and rank-size points."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from prodstat import ingest
from prodstat.errors import EmptyYear, SchemaError, TooManyBadRows
from prodstat.ingest import FilterConfig, build_samples, load_csv

HEADER = "firm_id,year,sector_code,sector_class,value_added,workers_eoy\n"


def _write(tmp_path, body, name="panel.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def test_load_basic(tmp_path):
    path = _write(tmp_path,
                  "A,2000,3,M,120.0,10\n"
                  "A,2001,3,M,150.0,14\n"
                  "B,2000,7,N,80.0,4\n")
    result = load_csv(path)
    assert len(result.records) == 3
    assert result.errors == ()
    assert result.exclusions == ()
    rec = result.records[0]
    assert rec["firm_id"] == "A"
    assert rec["workers_eoy"] == 10
    assert result.records.dtype.names == ingest.SCHEMA_V1


def test_records_dtype(tmp_path):
    # firm_id is as wide as the longest id, and 1 wide with no records
    result = load_csv(_write(tmp_path, "A,2000,3,M,120.0,10\n"
                                       "FIRM7,2000,7,N,80.0,4\n"
                                       "B,2000,7,N,8.0,0\n"))
    assert result.records.dtype.descr == [
        ("firm_id", "<U5"), ("year", "<i8"), ("sector_code", "<i8"),
        ("sector_class", "<U1"), ("value_added", "<f8"), ("workers_eoy", "<i8")]
    assert result.records.tolist() == [("A", 2000, 3, "M", 120.0, 10),
                                       ("FIRM7", 2000, 7, "N", 80.0, 4)]
    empty = load_csv(_write(tmp_path, "LONGNAME,2000,3,M,1.0,0\n", "e.csv"))
    assert len(empty.records) == 0
    assert empty.records.dtype["firm_id"] == np.dtype("<U1")
    build = build_samples(empty.records)
    assert len(build.samples) == len(build.exclusions) == 0
    # a header alone, or with blank lines after it, loads as no records
    # and no warning (numpy's "input contained no data" would fail here)
    for body in ("", "\n\n", "\r\n"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            header_only = load_csv(_write(tmp_path, body, "h.csv"))
        assert caught == []
        assert header_only.records.dtype == empty.records.dtype
        assert len(header_only.records) == 0
        assert header_only.errors == header_only.exclusions == ()


def test_byte_order_mark_accepted(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, which used to
    # glue itself to firm_id and fail the header check
    path = tmp_path / "bom.csv"
    path.write_text(HEADER + "A,2000,3,M,120.0,10\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_csv(path).records.tolist() == [("A", 2000, 3, "M", 120.0, 10)]
    # the row-by-row reread skips the mark too
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    path.write_text(HEADER + good + "BAD,x,y,z,q,w\n", encoding="utf-8-sig")
    result = load_csv(path)
    assert len(result.records) == 199
    assert [e.line_no for e in result.errors] == [201]


def test_parse_row():
    assert ingest._parse_row([" A", "2000", "3", "M", "1.5", "4 "]) == (
        "A", 2000, 3, "M", 1.5, 4)
    assert ingest._parse_row(["A", "2000", "3", "M", "1.5", "0"]) == (
        "A", 2000, 3, "M", 1.5, 0)
    with pytest.raises(ValueError, match="^unknown sector_class 'Q'"):
        ingest._parse_row(["A", "2000", "3", "Q", "1.5", "0"])


def test_ingest_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    # numpy is the one runtime dependency: scipy is a test reference only
    probe = ("import sys, prodstat.ingest, prodstat.cli, prodstat.simulate, "
             "prodstat.thermo; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == "[]\n"


def test_missing_column_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("firm_id,year,sector_code,sector_class,value_added\n")
    with pytest.raises(SchemaError, match="workers_eoy"):
        load_csv(path)


def test_reordered_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("year,firm_id,sector_code,sector_class,value_added,workers_eoy\n")
    with pytest.raises(SchemaError, match="out of order"):
        load_csv(path)


def test_extra_column_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER.rstrip("\n") + ",region\n")
    with pytest.raises(SchemaError) as info:
        load_csv(path)
    assert str(info.value) == "header mismatch; unexpected columns: region"


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(path)


def test_zero_workers_is_exclusion_not_error(tmp_path):
    # a parseable row violating a domain rule must not count toward the
    # malformed-row fatality threshold, however small the file
    path = _write(tmp_path,
                  "A,2000,3,M,120.0,10\n"
                  "B,2000,3,M,90.0,0\n"
                  "C,2000,3,M,50.0,5\n")
    result = load_csv(path)
    assert len(result.records) == 2
    assert len(result.exclusions) == 1
    assert result.exclusions[0].reason == "zero workers"
    assert result.exclusions[0].firm_id == "B"


def test_negative_workers_and_sector_range(tmp_path):
    path = _write(tmp_path,
                  "A,2000,3,M,120.0,-2\n"
                  "B,2000,27,M,90.0,5\n"
                  "C,2000,0,N,90.0,5\n")
    result = load_csv(path)
    assert len(result.records) == 0
    reasons = sorted(e.reason for e in result.exclusions)
    assert reasons == ["negative workers", "sector_code out of range",
                       "sector_code out of range"]


def test_malformed_rows_under_threshold(tmp_path):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    path = _write(tmp_path, good + "BAD,x,y,z,q,w\n")
    result = load_csv(path)
    assert len(result.records) == 199
    assert len(result.errors) == 1
    assert result.errors[0].line_no == 201


def test_blank_lines_skipped_and_not_counted(tmp_path):
    # a blank line is no record and no row of the 1% rule, but line
    # numbers count it
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    result = load_csv(_write(tmp_path, good + "\n" + "BAD,x,y,z,q,w\n"))
    assert len(result.records) == 199
    assert [(e.line_no, e.message) for e in result.errors] == [
        (202, "non-integer year, sector_code, or workers_eoy")]
    # 1 malformed row out of 51 is past 1%; counting 60 blank lines as
    # rows would bring it under
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(50))
    with pytest.raises(TooManyBadRows) as info:
        load_csv(_write(tmp_path, "\n" * 60 + good + "BAD,x,y,z,q,w\n"))
    assert str(info.value) == (
        "1 malformed rows out of 51 (threshold 1%); first: line 112: "
        "non-integer year, sector_code, or workers_eoy")


def test_line_numbers_count_physical_lines(tmp_path):
    # a quoted id holding a line break makes lines 2-3 one row; each
    # malformed row is named by the physical line it starts on
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(198))
    result = load_csv(_write(tmp_path, '"A\nB",2000,3,M,10.0,5\n' + good
                             + '"X\nY",2000,3,M,10.0\n' + "BAD,x,y,z,q,w\n"))
    assert result.records["firm_id"][0] == "A\nB"
    assert len(result.records) == 199
    assert [(e.line_no, e.message) for e in result.errors] == [
        (202, "expected 6 fields, got 5"),
        (204, "non-integer year, sector_code, or workers_eoy")]


_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("row", [
    "X" * (_LIMIT + 1) + ",2000,3,M,10.0,5",
    '"' + "X," * (_LIMIT // 2 + 1) + '",2000,3,M,10.0,5',   # quoted commas
    "X,2000,3," + " " * _LIMIT + "M,10.0,5",                # stripped to M
    "X," + " " * _LIMIT + "2000,3,M,10.0,5",                # padded numbers
    "X,2000,3,M,10.0,5" + " " * _LIMIT,
    "X,2000,3,M,1." + "5" * _LIMIT + ",5",
    # a quoted number over two lines, neither past the limit
    'X,"' + " " * (_LIMIT // 2) + "\n" + " " * (_LIMIT // 2) + '2000",3,M,10.0,5',
])
@pytest.mark.parametrize("bad", ["", "BAD,x,y,z,q,w\n"])
def test_field_past_csv_limit_names_its_line(tmp_path, row, bad):
    # csv.reader rejects the field and np.loadtxt reads it; the file
    # fails the same way whether or not a malformed row sends it to csv
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    path = _write(tmp_path, good + row + "\n" + bad)
    with pytest.raises(SchemaError,
                       match=r"^line 201: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize("bad", ["", "BAD,x,y,z,q,w\n"])
def test_field_at_csv_limit_loads(tmp_path, bad):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    result = load_csv(_write(tmp_path, good + "X" * _LIMIT + ",2000,3,M,10.0,5\n"
                             + bad))
    assert len(result.records) == 200
    assert result.records["firm_id"][-1] == "X" * _LIMIT


def test_header_past_csv_limit_names_its_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("Y" * (_LIMIT + 1) + "\n")
    with pytest.raises(SchemaError,
                       match=r"^line 1: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize("row", [
    "F0\x00,2001,3,M,10.0,5",      # a U column would read F0
    "F0\x00B,2001,3,M,10.0,5",
    "F0,2001,3,M\x00,10.0,5",
    "F0,2001,3,M,10.0,5\x00",
    '"F0\n\x00",2001,3,M,10.0,5',   # named by the line the row starts on
    None,                          # in the header, after firm_id
], ids=["id end", "id inside", "class", "line end", "second line", "header"])
@pytest.mark.parametrize("bad", ["", "BAD,x,y,z,q,w\n"], ids=["clean", "bad row"])
def test_nul_names_its_line(tmp_path, row, bad):
    # csv.reader refuses a NUL before Python 3.11 and accepts it after,
    # and np.loadtxt reads it: every read must refuse it as csv did
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    if row is None:
        header, body, line = HEADER.replace(",", "\x00,", 1), bad + good, 1
    else:
        header, body, line = HEADER, bad + good + row + "\n", 201 + bool(bad)
    path = tmp_path / "panel.csv"
    path.write_text(header + body)
    with pytest.raises(SchemaError, match=rf"^line {line}: line contains NUL$"):
        load_csv(path)


@pytest.mark.parametrize("row,message", [
    ("X,2000,3,M,10.0", "expected 6 fields, got 5"),
    ("X,2000,3,M,10.0,5,7", "expected 6 fields, got 7"),
    (" ,2000,3,M,10.0,5", "empty firm_id"),
])
def test_row_shape_is_malformed(tmp_path, row, message):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    result = load_csv(_write(tmp_path, good + row + "\n"))
    assert len(result.records) == 199
    assert [(e.line_no, e.message) for e in result.errors] == [(201, message)]


def test_too_many_bad_rows(tmp_path):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(50))
    path = _write(tmp_path, good + "BAD,x,y,z,q,w\n")
    with pytest.raises(TooManyBadRows):
        load_csv(path)


def test_bad_class_is_malformed(tmp_path):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    path = _write(tmp_path, good + "X,2000,3,Q,10.0,5\n")
    result = load_csv(path)
    assert len(result.errors) == 1
    assert "sector_class" in result.errors[0].message


@pytest.mark.parametrize("token,message", [
    ("nan", "value_added is NaN"),
    ("inf", "value_added 'inf' is infinite"),
    ("-inf", "value_added '-inf' is infinite"),
    ("1e400", "value_added '1e400' is infinite"),
])
def test_nonfinite_value_is_malformed(tmp_path, token, message):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    path = _write(tmp_path, good + f"X,2000,3,M,{token},5\n")
    result = load_csv(path)
    assert len(result.records) == 199
    assert [(e.line_no, e.message) for e in result.errors] == [(201, message)]
    assert np.isfinite(result.records["value_added"]).all()


def test_nonfinite_value_counts_toward_threshold(tmp_path):
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(50))
    path = _write(tmp_path, good + "X,2000,3,M,1e400,5\n")
    with pytest.raises(TooManyBadRows, match="line 52: value_added '1e400'"):
        load_csv(path)


def test_huge_integer_is_malformed(tmp_path):
    # 10**30 is past np.loadtxt's int64, the others are not; the 2**62
    # limit keeps year - 1 and a two-year workforce sum in range
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    for row in (f"X,{10 ** 30},3,M,10.0,5", f"X,{2 ** 62},3,M,10.0,5",
                f"X,{-(2 ** 62)},3,M,10.0,5", f"X,2000,3,M,10.0,{2 ** 62}"):
        result = load_csv(_write(tmp_path, good + row + "\n"))
        assert len(result.records) == 199
        assert [(e.line_no, e.message) for e in result.errors] == [
            (201, "year or workers_eoy out of range")]


@pytest.mark.parametrize("kwargs", [
    {"min_workers": math.nan}, {"min_workers": math.inf},
    {"max_productivity": math.nan}, {"max_productivity": math.inf},
])
def test_filter_rejects_nonfinite(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        FilterConfig(**kwargs)


def test_build_samples_averaging(tmp_path):
    path = _write(tmp_path,
                  "A,2000,3,M,120.0,10\n"
                  "A,2001,3,M,150.0,14\n")
    build = build_samples(load_csv(path).records)
    # year 2000 lacks a prior year; 2001 uses L = (14 + 10) / 2 = 12
    assert len(build.samples) == 1
    s = build.samples[0]
    assert s["year"] == 2001
    assert s["c"] == pytest.approx(150.0 / 12.0)
    assert s["weight_workers"] == pytest.approx(12.0)
    assert dict(Counter(build.exclusions["reason"].tolist())) == {
        "no prior-year workers": 1}


def test_build_samples_exclusion_reasons(tmp_path):
    path = _write(tmp_path,
                  "A,2000,3,M,100.0,10\n"
                  "A,2001,3,M,-5.0,10\n"       # nonpositive value added
                  "B,2000,3,M,100.0,1\n"
                  "B,2001,3,M,10.0,1\n"        # L = 1 < min_workers = 2
                  "C,2000,3,M,100.0,10\n"
                  "C,2001,3,M,1e9,10\n")       # above cap
    build = build_samples(load_csv(path).records,
                          FilterConfig(min_workers=2.0, max_productivity=1e6))
    assert len(build.samples) == 0
    counts = Counter(build.exclusions["reason"].tolist())
    assert counts["nonpositive value added"] == 1
    assert counts["below minimum workers"] == 1
    assert counts["above productivity cap"] == 1
    assert counts["no prior-year workers"] == 3


def test_build_samples_duplicate_first_wins(tmp_path):
    path = _write(tmp_path,
                  "A,2000,3,M,100.0,10\n"
                  "A,2001,3,M,110.0,10\n"
                  "A,2001,3,M,999.0,10\n")
    build = build_samples(load_csv(path).records)
    assert len(build.samples) == 1
    assert build.samples[0]["c"] == pytest.approx(11.0)
    assert Counter(build.exclusions["reason"].tolist())["duplicate firm-year"] == 1


def test_count_conservation(tmp_path):
    rows = []
    for i in range(40):
        rows.append(f"F{i},2000,{i % 26 + 1},M,{50.0 + i},{5 + i}\n")
        rows.append(f"F{i},2001,{i % 26 + 1},M,{60.0 + i},{6 + i}\n")
    path = _write(tmp_path, "".join(rows))
    load = load_csv(path)
    build = build_samples(load.records)
    assert len(build.samples) + len(build.exclusions) == len(load.records)


def test_top_productivities_reported_without_cap(tmp_path):
    rows = []
    for i in range(12):
        rows.append(f"F{i},2000,1,M,{10.0 * (i + 1)},2\n")
        rows.append(f"F{i},2001,1,M,{10.0 * (i + 1)},2\n")
    path = _write(tmp_path, "".join(rows))
    build = build_samples(load_csv(path).records)
    assert len(build.top_productivities) == 10
    assert build.top_productivities[0] == build.samples["c"].max()
    capped = build_samples(load_csv(path).records,
                           FilterConfig(max_productivity=1e9))
    assert capped.top_productivities == ()

    # 0, 1, 9, 10 and 11 samples in shuffled order, then a tie across the
    # tenth place: each the head of a full descending sort.  Firm X's
    # one year pairs with no prior, so a panel of no samples still loads.
    rng = np.random.default_rng(5)
    cases = [rng.permutation(n) + 1.0 for n in (0, 1, 9, 10, 11)]
    cases.append(rng.permutation([20.0 + i for i in range(8)]
                                 + [7.0, 7.0, 7.0, 1.0, 2.0]))
    for k, values in enumerate(cases):
        rows = ["X,2000,1,M,1.0,1\n"]
        for i, v in enumerate(values):     # l_bar = 2, so c = v
            rows.append(f"F{i},2000,1,M,{2 * v},2\n")
            rows.append(f"F{i},2001,1,M,{2 * v},2\n")
        path = _write(tmp_path, "".join(rows), name=f"top{k}.csv")
        build = build_samples(load_csv(path).records)
        assert len(build.samples) == len(values)
        full = tuple(np.sort(build.samples["c"])[::-1][:10].tolist())
        assert build.top_productivities == full
        assert full == tuple(sorted(values, reverse=True)[:10])


def test_sector_aggregate(tmp_path):
    path = _write(tmp_path,
                  "A,2000,1,M,100.0,10\n"
                  "A,2001,1,M,120.0,10\n"      # c = 12, w = 10
                  "B,2000,1,M,100.0,30\n"
                  "B,2001,1,M,180.0,30\n"      # c = 6, w = 30
                  "C,2000,2,N,100.0,5\n"
                  "C,2001,2,N,40.0,5\n")       # c = 8, w = 5
    build = build_samples(load_csv(path).records)
    agg = ingest.sector_aggregate(build.samples, 2001)
    assert agg == [(1, pytest.approx((12 * 10 + 6 * 30) / 40)),
                   (2, pytest.approx(8.0))]
    with pytest.raises(EmptyYear):
        ingest.sector_aggregate(build.samples, 1990)


def _reference_build(records, filters):
    """The dict-join loop the array build replaced: (samples, reasons)
    with samples as (firm_id, year, c, weight) in record order."""
    first = {}
    reasons = []
    for i, (firm, year) in enumerate(zip(records["firm_id"].tolist(),
                                         records["year"].tolist())):
        if (firm, year) in first:
            reasons.append((i, ingest.R_DUPLICATE))
        else:
            first[(firm, year)] = i
    samples = []
    for (firm, year), i in first.items():
        rec = records[i]
        prior = first.get((firm, year - 1))
        if prior is None:
            reasons.append((i, ingest.R_NO_PRIOR))
            continue
        l_bar = 0.5 * (int(rec["workers_eoy"]) + int(records[prior]["workers_eoy"]))
        c = float(rec["value_added"]) / l_bar
        if c <= 0.0:
            reasons.append((i, ingest.R_NONPOSITIVE))
        elif l_bar < filters.min_workers:
            reasons.append((i, ingest.R_MIN_WORKERS))
        elif filters.max_productivity is not None and c > filters.max_productivity:
            reasons.append((i, ingest.R_CAP))
        else:
            samples.append((i, (firm, year, c, l_bar)))
    return ([row for _, row in sorted(samples)],
            [reason for _, reason in sorted(reasons)])


def test_mixed_panel_ledger(tmp_path):
    path = _write(tmp_path,
                  "A,2001,3,M,110.0,12\n"     # line 2, sample: L = 11
                  "A,2000,3,M,100.0,10\n"     # no prior
                  "A,2001,3,M,999.0,12\n"     # duplicate of line 2
                  "B,2000,4,N,50.0,0\n"       # load: zero workers
                  "B,2001,4,N,60.0,4\n"       # no prior (2000 never loaded)
                  "C,1999,5,N,10.0,2\n"       # no prior
                  "C,2000,5,N,-3.0,2\n"       # nonpositive
                  "C,2001,5,N,5.0,1\n"        # L = 1.5 < 2
                  "D,2000,27,M,1.0,3\n"       # load: sector out of range
                  "D,2001,6,M,4.0e6,3\n"      # no prior
                  "E,2000,6,M,10.0,3\n"       # no prior
                  "E,2001,6,M,9.0e6,3\n"      # above cap
                  "E,2002,6,M,30.0,3\n"       # sample: c = 10
                  "E,2002,6,M,31.0,3\n"       # duplicate
                  "F,2003,1,M,8.0,2\n"        # no prior
                  "F,2001,1,M,8.0,2\n"        # no prior (2002 missing)
                  "F,2004,1,M,12.0,4\n")      # sample: L = 3, after its prior
    load = load_csv(path)
    filters = FilterConfig(min_workers=2.0, max_productivity=1e6)
    build = build_samples(load.records, filters)
    assert [e.reason for e in load.exclusions] == [ingest.R_ZERO_WORKERS,
                                                   ingest.R_SECTOR_RANGE]
    assert dict(Counter(build.exclusions["reason"].tolist())) == {
        "duplicate firm-year": 2,
        "no prior-year workers": 7,
        "nonpositive value added": 1,
        "below minimum workers": 1,
        "above productivity cap": 1}
    assert len(load.records) == len(build.samples) + len(build.exclusions)
    assert [f.name for f in dataclasses.fields(build)] == [
        "samples", "exclusions", "top_productivities"]
    # the build ledger is the records that are not samples, in record order
    assert build.exclusions.dtype.names == ("firm_id", "year", "reason")
    assert build.exclusions[["firm_id", "year"]].tolist() == [
        ("A", 2000), ("A", 2001), ("B", 2001), ("C", 1999), ("C", 2000),
        ("C", 2001), ("D", 2001), ("E", 2000), ("E", 2001), ("E", 2002),
        ("F", 2003), ("F", 2001)]
    assert build.samples["firm_id"].tolist() == ["A", "E", "F"]
    assert build.samples["c"].tolist() == [10.0, 10.0, 4.0]
    assert build.samples["weight_workers"].tolist() == [11.0, 3.0, 3.0]
    assert build.samples["sector_class"].tolist() == ["M", "M", "M"]
    assert build.top_productivities == ()
    ref_samples, ref_reasons = _reference_build(load.records, filters)
    assert build.exclusions["reason"].tolist() == ref_reasons
    assert [(s[0], s[1], s[4], s[5])
            for s in build.samples.tolist()] == ref_samples


def test_build_matches_reference_loop(tmp_path):
    rng = np.random.default_rng(5)
    rows = [(f"F{rng.integers(300)}", int(rng.integers(1995, 2002)),
             f"{rng.integers(1, 27)},{'MN'[rng.integers(2)]},"
             f"{rng.normal(50.0, 40.0)!r},{rng.integers(1, 20)}")
            for _ in range(3000)]
    # shuffled, then ordered by year or by firm as panels come, where the
    # stable sort merges presorted runs; duplicates keep their input order
    for layout in (rows, sorted(rows, key=lambda r: (r[1], r[0])),
                   sorted(rows, key=lambda r: r[:2])):
        load = load_csv(_write(tmp_path, "".join(
            f"{firm},{year},{rest}\n" for firm, year, rest in layout)))
        for filters in (FilterConfig(), FilterConfig(min_workers=4.0,
                                                     max_productivity=8.0)):
            build = build_samples(load.records, filters)
            ref_samples, ref_reasons = _reference_build(load.records, filters)
            assert build.exclusions["reason"].tolist() == ref_reasons
            assert dict(Counter(build.exclusions["reason"].tolist())) == dict(
                Counter(ref_reasons))
            got = [(s[0], s[1], s[4], s[5]) for s in build.samples.tolist()]
            assert got == ref_samples
            assert len(load.records) == len(build.samples) + len(build.exclusions)


def _reference_load(path):
    """The csv.reader and _parse_row loop alone: (records, errors,
    exclusions) as load_csv returns them below the 1% rule."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows, first_line = [], 1     # (physical line a row starts on, row)
        for row in reader:
            rows.append((first_line, row))
            first_line = reader.line_num + 1
    kept, errors, exclusions = [], [], []
    for line_no, row in rows[1:]:
        if not row:
            continue
        try:
            values = ingest._parse_row(row)
        except ValueError as exc:
            errors.append(ingest.RowError(line_no, str(exc)))
            continue
        code, workers = values[2], values[5]
        reason = (ingest.R_ZERO_WORKERS if workers == 0
                  else ingest.R_NEGATIVE_WORKERS if workers < 0
                  else None if 1 <= code <= 26 else ingest.R_SECTOR_RANGE)
        if reason is None:
            kept.append(values)
        else:
            exclusions.append(ingest.Exclusion(values[0], values[1], reason))
    width = max((len(values[0]) for values in kept), default=1)
    dtype = [("firm_id", f"<U{width}"), ("year", "<i8"), ("sector_code", "<i8"),
             ("sector_class", "<U1"), ("value_added", "<f8"), ("workers_eoy", "<i8")]
    return np.array(kept, dtype=dtype), errors, exclusions


def _takes_bulk_parse(path):
    """Whether load_csv's one np.loadtxt pass accepts the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        next(csv.reader(fh))
        return ingest._load_columns(fh) is not None


_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

# row edits that both parsers read alike
_BULK_EDITS = [
    lambda r: [f"  {r[0]}\t"] + r[1:],
    lambda r: [f'"{r[0]}, Ltd"'] + r[1:],
    lambda r: [f'" {r[0]} ""K"""'] + r[1:],
    lambda r: r[:5] + ["+" + r[5]],
    lambda r: r[:3] + [f" {r[3]} "] + r[4:],
    lambda r: r[:4] + [f'"{r[4]}"', f" {r[5]} "],
    lambda r: r[:2] + ["0"] + r[3:],
    lambda r: r[:2] + ["27"] + r[3:],
    # whitespace that str.strip removes and an ASCII-only strip keeps
    lambda r: [f"\u00a0{r[0]}\u3000"] + r[1:3] + [f"\x1c{r[3]}\u00a0"] + r[4:],
    lambda r: [f"\x1c{r[0]}"] + r[1:3] + [f"\u3000{r[3]}"] + r[4:],
]
# row edits that int() or float() accept and np.loadtxt rejects
_LOOP_EDITS = [
    lambda r: r[:5] + ["1_000"],
    lambda r: r[:4] + ["1_250.5", r[5]],
    lambda r: [r[0], r[1].translate(_FULL_WIDTH)] + r[2:],
    lambda r: r[:2] + [str(2 ** 63)] + r[3:],
]
# malformed rows
_BAD_EDITS = [
    lambda r: r[:4] + ["1e400", r[5]],
    lambda r: r[:4] + ["infinity", r[5]],
    lambda r: [r[0], str(2 ** 63)] + r[2:],
    lambda r: [r[0], str(2 ** 62)] + r[2:],
    lambda r: r[:5] + [str(2 ** 64)],
    # past 2**62 on a row that would be excluded: malformed all the same
    lambda r: [r[0], str(2 ** 62 + 7), r[2], r[3], r[4], "0"],
    lambda r: [r[0], str(-(2 ** 62)), r[2], r[3], r[4], "-3"],
    lambda r: [r[0], str(2 ** 63 + 1), r[2], r[3], r[4], "0"],
]


def _seeded_rows(rng, n):
    return [[f"F{rng.integers(200)}", str(rng.integers(1995, 2002)),
             str(rng.integers(1, 27)), "MN"[rng.integers(2)],
             repr(float(rng.normal(50.0, 40.0))), str(rng.integers(1, 20))]
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_load_matches_reference_loop(tmp_path, seed):
    # seeds 0-2 edit rows only in ways np.loadtxt reads, so the bulk
    # parse must take the file; seeds 3-5 add edits only int() and
    # float() read and a few malformed rows, so the loop must
    rng = np.random.default_rng(seed)
    rows = _seeded_rows(rng, 800)
    edits = _BULK_EDITS + (_LOOP_EDITS if seed >= 3 else [])
    for i in rng.choice(len(rows), 120, replace=False):
        rows[i] = edits[rng.integers(len(edits))](rows[i])
    if seed >= 3:
        for i in rng.choice(len(rows), 5, replace=False):
            rows[i] = _BAD_EDITS[rng.integers(len(_BAD_EDITS))](rows[i])
    lines = [",".join(row) for row in rows]
    for i in sorted(rng.choice(len(lines), 6, replace=False), reverse=True):
        lines.insert(i, "")
    newline = "\r\n" if seed % 2 else "\n"
    path = tmp_path / "panel.csv"
    path.write_bytes((HEADER.replace("\n", newline)
                      + newline.join(lines) + newline).encode("utf-8"))

    got = load_csv(path)
    records, errors, exclusions = _reference_load(path)
    assert _takes_bulk_parse(path) == (seed < 3)
    assert got.records.dtype == records.dtype
    assert got.records.tobytes() == records.tobytes()
    assert list(got.errors) == errors
    assert list(got.exclusions) == exclusions
    assert all(type(e.year) is int for e in got.exclusions)
    assert len(exclusions) > 0 and (len(errors) > 0) == (seed >= 3)


def test_excluded_longest_id_sets_no_width(tmp_path):
    # the longest id, padded with whitespace str.strip removes, is on an
    # excluded row: the records' id width is the longest kept id's, and
    # the ledger keeps the whole stripped id, under either read
    long_id = "L" * 40
    rows = [f"\u3000{long_id}\u00a0,2000,3,M,10.0,0\n"] + [
        f" F{i}\x1c,2000,3,\u00a0N,10.0,5\n" for i in range(150)]
    for bad in ("", "BAD,x,y,z,q,w\n"):
        path = _write(tmp_path, "".join(rows) + bad)
        assert _takes_bulk_parse(path) == (not bad)
        got = load_csv(path)
        records, errors, exclusions = _reference_load(path)
        assert got.records.dtype == records.dtype
        assert got.records.dtype["firm_id"] == np.dtype("<U4")
        assert got.records.tobytes() == records.tobytes()
        assert set(got.records["sector_class"].tolist()) == {"N"}
        assert list(got.errors) == errors and len(errors) == bool(bad)
        assert list(got.exclusions) == exclusions == [
            ingest.Exclusion(long_id, 2000, ingest.R_ZERO_WORKERS)]


def test_bulk_and_loop_give_identical_records(tmp_path):
    # one malformed row sends the whole file to the loop; the records
    # must not tell which parser read them
    rows = "".join(",".join(row) + "\n"
                   for row in _seeded_rows(np.random.default_rng(9), 400))
    clean = _write(tmp_path, rows, "clean.csv")
    dirty = _write(tmp_path, rows + "BAD,x,y,z,q,w\n", "dirty.csv")
    assert _takes_bulk_parse(clean) and not _takes_bulk_parse(dirty)
    a, b = load_csv(clean), load_csv(dirty)
    assert a.records.dtype == b.records.dtype
    assert a.records.tobytes() == b.records.tobytes()
    assert [(e.line_no, e.message) for e in b.errors] == [
        (402, "non-integer year, sector_code, or workers_eoy")]


_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("digits", [
    pytest.param(_DIGITS, id="interpreter-limit"),
    # no limit: the guard's run is csv.field_size_limit() alone
    pytest.param(0, id="no-limit", marks=pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="int()'s digit limit cannot be set")),
])
def test_overlong_integer_reads_alike_with_and_without_a_bad_row(tmp_path, digits):
    # np.loadtxt reads '0' * 5000 + '2000' as 2000, and int() refuses it
    # past sys.get_int_max_str_digits(): the loop's answer must hold
    # whether or not another row sends the file to the loop
    rows = "".join(f"F{i},{'0' * 5000 * (i == 0)}2000,3,M,10.0,5\n"
                   for i in range(200))
    limited = bool(digits)
    alone_path = _write(tmp_path, rows, "alone.csv")
    set_digits = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_digits(digits)
    try:
        assert _takes_bulk_parse(alone_path) == (not limited)
        alone = load_csv(alone_path)
        dirty = load_csv(_write(tmp_path, rows + "BAD,x\n", "dirty.csv"))
    finally:
        set_digits(_DIGITS)
    assert len(alone.records) == 200 - limited
    assert alone.records.tobytes() == dirty.records.tobytes()
    assert list(dirty.errors) == [*alone.errors, ingest.RowError(
        202, "expected 6 fields, got 2")]
    assert [(e.line_no, e.message) for e in alone.errors] == limited * [
        (2, "non-integer year, sector_code, or workers_eoy")]


# the guard's run: a text with this many characters in a row without a
# comma goes to the row loop
_RUN = min(_LIMIT, _DIGITS - 18) if _DIGITS else _LIMIT
_needs_digit_limit = pytest.mark.skipif(not _DIGITS, reason="int() has no digit limit")


@pytest.mark.parametrize("first,bulk", [
    pytest.param("X," + "0" * _RUN + "2000,3,M,10.0,5", False,
                 marks=_needs_digit_limit),
    pytest.param("X," + "0" * (_RUN - 4) + "2000,3,M,10.0,5", False,
                 marks=_needs_digit_limit),
    pytest.param("X," + "0" * (_RUN - 5) + "2000,3,M,10.0,5", True,
                 marks=_needs_digit_limit),
    ("X" * _RUN + ",2000,3,M,10.0,5", False),
    ("X" * (_RUN - 1) + ",2000,3,M,10.0,5", True),
])
def test_comma_free_run_guard_edges(tmp_path, first, bulk):
    # the first data row's run starts the scanned text, so its length is
    # the run's: a run of _RUN goes to the loop and one less does not,
    # and the records do not tell which read took the file
    good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
    alone = _write(tmp_path, first + "\n" + good, "alone.csv")
    dirty = _write(tmp_path, first + "\n" + good + "BAD,x,y,z,q,w\n", "dirty.csv")
    assert _takes_bulk_parse(alone) == bulk
    assert not _takes_bulk_parse(dirty)
    a, b = load_csv(alone), load_csv(dirty)
    assert len(a.records) == 200 and a.errors == ()
    assert a.records.dtype == b.records.dtype
    assert a.records.tobytes() == b.records.tobytes()
    assert list(b.errors) == [ingest.RowError(
        202, "non-integer year, sector_code, or workers_eoy")]


def test_range_rule_holds_on_excluded_rows(tmp_path):
    # a year or workers_eoy of 2**62 or more in size is malformed whatever
    # the row's other fields, under either read
    for row in (["A", str(2 ** 62), "3", "M", "1.5", "0"],
                ["A", str(-(2 ** 62)), "3", "M", "1.5", "-3"],
                ["A", "2000", "99", "M", "1.5", str(2 ** 62)]):
        with pytest.raises(ValueError, match="^year or workers_eoy out of range$"):
            ingest._parse_row(row)
        good = "".join(f"F{i},2000,3,M,10.0,5\n" for i in range(199))
        for bad in ("", "BAD,x,y,z,q,w\n"):
            result = load_csv(_write(tmp_path, good + ",".join(row) + "\n" + bad))
            assert len(result.records) == 199 and result.exclusions == ()
            assert [e.line_no for e in result.errors] == [201, 202][:1 + bool(bad)]


def test_ranksize_plain():
    c, frac = ingest.ranksize([1.0, 2.0, 3.0])
    assert list(zip(c.tolist(), frac.tolist())) == [
        (3.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
        (1.0, pytest.approx(1.0))]


def test_ranksize_weighted():
    c, frac = ingest.ranksize(np.array([5.0, 2.0]), np.array([1.0, 3.0]))
    assert list(zip(c.tolist(), frac.tolist())) == [
        (5.0, pytest.approx(0.25)), (2.0, pytest.approx(1.0))]


def test_ranksize_unweighted_samples():
    c, frac = ingest.ranksize(np.array([5.0, 2.0]))
    assert list(zip(c.tolist(), frac.tolist())) == [
        (5.0, pytest.approx(0.5)), (2.0, pytest.approx(1.0))]


def test_ranksize_ties_keep_input_order():
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    c, frac = ingest.ranksize(np.array([2.0, 7.0, 2.0, 7.0, 2.0]), weights)
    assert c.tolist() == [7.0, 7.0, 2.0, 2.0, 2.0]
    assert frac.tolist() == (np.cumsum([2.0, 4.0, 1.0, 3.0, 5.0]) / 15.0).tolist()


def test_ranksize_weighted_fraction_ends_at_one():
    rng = np.random.default_rng(3)
    c, frac = ingest.ranksize(rng.pareto(1.5, 5000), rng.uniform(0.1, 50.0, 5000))
    assert frac[-1] == 1.0
    assert np.all(np.diff(frac) > 0.0)
    assert np.all(np.diff(c) <= 0.0)


def test_ranksize_empty():
    with pytest.raises(ValueError, match="at least one"):
        ingest.ranksize(np.array([]))
