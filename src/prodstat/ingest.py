"""Panel ingestion: firm-year records in, productivity samples out.

Input is a UTF-8 CSV with header
firm_id,year,sector_code,sector_class,value_added,workers_eoy
(sector_class is M or N, sector_code 1..26).  Productivity is
c = Y / L where L averages the year's and the prior year's workforce,
so a firm's first panel year never yields a sample.  Every record that
does not become a sample lands in an exclusion ledger with a reason;
nothing is dropped silently, and |records| = |samples| + |exclusions|
on every build.

Records, samples and the build-stage exclusion ledger are numpy
structured arrays, one row per firm-year in input order, so a slice of
the panel is a boolean mask.  Records have the CSV's columns; samples
have firm_id, year, sector_code, sector_class, c and weight_workers
(the averaged workforce, used as the fit weight); the ledger has
firm_id, year and reason.  sector_class holds the CSV code, M or N.

The CSV may quote fields, as spreadsheets write them; whitespace
around a field is stripped, blank lines are skipped and a UTF-8
byte-order mark is accepted.  One np.loadtxt pass parses the data rows
into whole columns.  A file that the pass cannot read, or that has a
malformed row, is read again row by row by csv.reader and _parse_row,
which alone define a malformed row, its line number (the physical line
the row starts on) and its message.  A field past csv's size limit
(131072 characters) or a NUL stops that read with a SchemaError
naming its line.  The pass sends to the loop every file whose text
holds a NUL or has a run without a comma as long as the smaller of
that limit and sys.get_int_max_str_digits() - 18, which any numeric
field past the limit and any integer token that int() refuses and an
int64 holds contain, and every file with a parsed firm_id or
sector_class past the limit.  The pass strips each firm_id once, and
checks and maps the sector classes on their few distinct raw values.
Both reads end in the same column step, which codes the load-stage
rules over whole columns and builds each record column once, so the
records do not tell which read took the file; on a clean panel the
loop never runs.

Two kinds of problems are kept apart on load: rows the parser cannot
read (wrong field count, non-numeric or non-finite tokens, unknown
sector class, a year of 2**62 or more in size or a workers_eoy of 2**62
or more, whatever the row's other fields) are errors and become fatal
past 1% of data rows; rows that parse but violate a domain rule (zero
workers, negative workers of any size, sector code out of range) are
load-stage exclusions and never fatal.  Both kinds are rare rejected
rows, kept as tuples of RowError and Exclusion records.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import EmptyYear, SchemaError, TooManyBadRows

SCHEMA_V1 = ("firm_id", "year", "sector_code", "sector_class",
             "value_added", "workers_eoy")
_BAD_ROW_FRACTION = 0.01
_N_SECTORS = 26
_INT_LIMIT = 2 ** 62    # keeps year - 1 and the two-year workforce sum in int64

# exclusion reason codes
R_ZERO_WORKERS = "zero workers"
R_NEGATIVE_WORKERS = "negative workers"
R_SECTOR_RANGE = "sector_code out of range"
R_NONPOSITIVE = "nonpositive value added"
R_NO_PRIOR = "no prior-year workers"
R_MIN_WORKERS = "below minimum workers"
R_CAP = "above productivity cap"
R_DUPLICATE = "duplicate firm-year"

# load- and build-stage reasons by precedence; code 0 marks a kept row
_LOAD_REASONS = np.array(["", R_ZERO_WORKERS, R_NEGATIVE_WORKERS, R_SECTOR_RANGE])
_BUILD_REASONS = np.array(["", R_DUPLICATE, R_NO_PRIOR, R_NONPOSITIVE,
                           R_MIN_WORKERS, R_CAP])

CLASS_CODES = ("M", "N")

# np.loadtxt's columns: the strings as str objects, stripped after the parse
_COLUMNS_DTYPE = np.dtype(list(zip(SCHEMA_V1, (object, np.int64, np.int64,
                                               object, np.float64, np.int64))))
# the row loop's columns: _parse_row's values, cast once a row is kept
_ROWS_DTYPE = np.dtype([(name, object) for name in SCHEMA_V1])


@dataclass(frozen=True)
class FilterConfig:
    min_workers: float = 1.0
    max_productivity: float | None = None

    def __post_init__(self):
        for name in ("min_workers", "max_productivity"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RowError:
    line_no: int
    message: str


@dataclass(frozen=True)
class Exclusion:
    firm_id: str
    year: int
    reason: str


@dataclass(frozen=True)
class LoadResult:
    records: np.ndarray                   # structured, SCHEMA_V1 columns
    errors: tuple[RowError, ...]          # malformed rows (1% fatality rule)
    exclusions: tuple[Exclusion, ...]     # parseable rows violating domain rules


@dataclass(frozen=True)
class BuildResult:
    samples: np.ndarray                   # structured, in record order
    exclusions: np.ndarray                # structured (firm_id, year, reason)
    top_productivities: tuple[float, ...]  # warn list when no cap set


def _table(**columns: np.ndarray) -> np.ndarray:
    """One structured array from equal-length columns."""
    n = len(next(iter(columns.values())))
    out = np.empty(n, dtype=[(name, col.dtype) for name, col in columns.items()])
    for name, col in columns.items():
        out[name] = col
    return out


def load_csv(path) -> LoadResult:
    """Parse the panel CSV.  Raises SchemaError on a wrong header or a
    line csv cannot read, TooManyBadRows past the 1% threshold, and
    ValueError naming the path on a byte that is not UTF-8.

    One np.loadtxt pass parses the data rows.  If it fails, or a row
    breaks a rule of _parse_row, the file is read again row by row, so
    that each malformed row is named by its line and message."""
    try:
        with open(Path(path), newline="", encoding="utf-8-sig") as fh:
            try:
                _, header = next(_numbered_rows(fh))
            except StopIteration:
                raise SchemaError("empty file: missing header") from None
            header = tuple(h.strip() for h in header)
            if header != SCHEMA_V1:
                missing = [col for col in SCHEMA_V1 if col not in header]
                extra = [col for col in header if col not in SCHEMA_V1]
                parts = []
                if missing:
                    parts.append(f"missing columns: {', '.join(missing)}")
                if extra:
                    parts.append(f"unexpected columns: {', '.join(extra)}")
                if not parts:
                    parts.append("columns out of order")
                raise SchemaError("header mismatch; " + "; ".join(parts))
            result = _load_columns(fh)
            if result is not None:
                return result

            # read again row by row: the one definition of each RowError
            fh.seek(0)
            numbered = _numbered_rows(fh)
            next(numbered)
            rows: list[tuple] = []
            errors: list[RowError] = []
            for line_no, row in numbered:
                if row:
                    try:
                        rows.append(_parse_row(row))
                    except ValueError as exc:
                        errors.append(RowError(line_no, str(exc)))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n_rows = len(rows) + len(errors)
    if errors and len(errors) > _BAD_ROW_FRACTION * n_rows:
        raise TooManyBadRows(
            f"{len(errors)} malformed rows out of {n_rows} "
            f"(threshold {_BAD_ROW_FRACTION:.0%}); first: "
            f"line {errors[0].line_no}: {errors[0].message}")
    cols = np.array(rows, dtype=_ROWS_DTYPE)
    return _load_result(cols, cols["firm_id"].tolist(), cols["sector_class"],
                        tuple(errors))


def _numbered_rows(fh):
    """csv.reader's rows of fh, each with the physical line it starts
    on; a quoted field may span lines.  csv's errors, such as a field
    past its size limit, become a SchemaError naming the line, and so
    does a NUL, which csv.reader refuses only before Python 3.11."""
    reader = csv.reader(fh)
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SchemaError(f"line {line_no}: {exc}") from None
        if any("\x00" in field for field in row):
            raise SchemaError(f"line {line_no}: line contains NUL")
        yield line_no, row


def _load_columns(fh) -> LoadResult | None:
    """The rest of fh parsed in one np.loadtxt pass, or None if the
    parse fails or warns, _parse_row would reject a row, or the text
    holds a NUL, which _numbered_rows rejects."""
    text = fh.read()
    if "\x00" in text:     # numpy's U columns drop a trailing NUL
        return None
    # a field past csv's limit, or an integer token that int() refuses
    # and an int64 holds (19 significant digits at most, so the digit
    # limit less 18 leading zeros), is a run of text without a comma;
    # a digit limit of 0 is none, and Python < 3.10.7 has none
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    run = min(csv.field_size_limit(), digits - 18 if digits else math.inf)
    i = 0
    while i + run <= len(text):
        comma = text.rfind(",", i, i + run)
        if comma < 0:
            return None
        i = comma + 1       # no run of `run` characters starts before this
    try:
        with warnings.catch_warnings():
            # numpy warns on a file with no data rows, and numpy < 2 on
            # an integer written as a float, which int() rejects
            warnings.simplefilter("error")
            cols = np.loadtxt(io.StringIO(text), dtype=_COLUMNS_DTYPE,
                              delimiter=",", quotechar='"', comments=None,
                              ndmin=1)
    except (ValueError, Warning):
        return None
    # loadtxt rejects 1_000, non-ASCII digits and integers past int64,
    # which int() and float() accept; it strips numbers, not strings,
    # and reads strings past csv's field size limit, which csv.reader rejects
    raw_ids = cols["firm_id"].tolist()
    firm_id = list(map(str.strip, raw_ids))
    classes = set(cols["sector_class"].tolist())    # a few distinct raw values
    year, workers = cols["year"], cols["workers_eoy"]
    if ("" in firm_id or max(map(len, [*raw_ids, *classes])) > csv.field_size_limit()
            or not {x.strip() for x in classes} <= set(CLASS_CODES)
            or not np.isfinite(cols["value_added"]).all()
            or ((year >= _INT_LIMIT) | (year <= -_INT_LIMIT)
                | (workers >= _INT_LIMIT)).any()):
        return None
    is_m = np.isin(cols["sector_class"], [x for x in classes if x.strip() == "M"])
    return _load_result(cols, firm_id, np.where(is_m, "M", "N"))


def _load_result(cols: np.ndarray, firm_id: list[str], sector_class: np.ndarray,
                 errors: tuple[RowError, ...] = ()) -> LoadResult:
    """Both reads end here: the parsed rows' columns, typed by np.loadtxt
    or holding _parse_row's values, with the stripped ids and classes,
    become the load-stage exclusions and the records of the rows kept."""
    year, code, workers = cols["year"], cols["sector_code"], cols["workers_eoy"]
    reason = np.select([workers == 0, workers < 0, (code < 1) | (code > _N_SECTORS)],
                       np.arange(1, len(_LOAD_REASONS)), 0)
    out = np.flatnonzero(reason)
    exclusions = tuple(map(Exclusion, [firm_id[i] for i in out.tolist()],
                           year[out].tolist(), _LOAD_REASONS[reason[out]].tolist()))
    keep = reason == 0
    # an excluded row's longer id is cut to this width, then dropped
    width = max(map(len, compress(firm_id, keep.tolist())), default=1)
    kinds = (f"U{width}", np.int64, np.int64, "U1", np.float64, np.int64)
    records = np.empty(len(keep) - len(out), dtype=list(zip(SCHEMA_V1, kinds)))
    for name, col in zip(SCHEMA_V1, (np.array(firm_id, kinds[0]), year, code,
                                     sector_class, cols["value_added"], workers)):
        records[name] = col[keep]
    return LoadResult(records=records, errors=errors, exclusions=exclusions)


def _parse_row(row) -> tuple:
    """The row's values in SCHEMA_V1 order, or ValueError with the
    message if the row is malformed: the one definition of that."""
    if len(row) != len(SCHEMA_V1):
        raise ValueError(f"expected {len(SCHEMA_V1)} fields, got {len(row)}")
    firm_id, year_s, code_s, class_s, value_s, workers_s = (x.strip() for x in row)
    if not firm_id:
        raise ValueError("empty firm_id")
    try:
        year = int(year_s)
        code = int(code_s)
        workers = int(workers_s)
    except ValueError:
        raise ValueError("non-integer year, sector_code, or workers_eoy") from None
    try:
        value = float(value_s)
    except ValueError:
        raise ValueError(f"bad value_added {value_s!r}") from None
    if value != value:
        raise ValueError("value_added is NaN")
    if math.isinf(value):
        raise ValueError(f"value_added {value_s!r} is infinite")
    if class_s not in CLASS_CODES:
        raise ValueError(f"unknown sector_class {class_s!r} (want M or N)")
    if abs(year) >= _INT_LIMIT or workers >= _INT_LIMIT:
        raise ValueError("year or workers_eoy out of range")
    return firm_id, year, code, class_s, value, workers


def build_samples(records: np.ndarray,
                  filters: FilterConfig = FilterConfig()) -> BuildResult:
    """Compute c = Y / mean(L_y, L_{y-1}) per record and apply filters.

    Every input record becomes exactly one sample or one ledgered
    exclusion; the first record of a firm-year wins over later
    duplicates.  With no max_productivity cap, the ten largest sample
    productivities are reported for inspection instead of being cut.
    """
    n = len(records)
    ids, year = records["firm_id"], records["year"]
    # stable by (firm, year), near linear on a panel ordered by year or by firm
    order = np.lexsort((year, ids))
    firm = np.zeros(n, dtype=np.intp)
    firm[order[1:]] = np.cumsum(ids[order[1:]] != ids[order[:-1]])
    f, y = firm[order], year[order]
    dup = np.zeros(n, dtype=bool)
    dup[order[1:][(f[1:] == f[:-1]) & (y[1:] == y[:-1])]] = True
    kept = order[~dup[order]]
    has_prior = ((firm[kept[1:]] == firm[kept[:-1]])
                 & (year[kept[1:]] == year[kept[:-1]] + 1))
    prior = np.full(n, -1)
    prior[kept[1:][has_prior]] = kept[:-1][has_prior]

    # a record without a prior pairs with itself; its reason code
    # (duplicate or no prior) takes precedence over its c
    workers = records["workers_eoy"]
    l_bar = 0.5 * (workers + workers[np.where(prior >= 0, prior, np.arange(n))])
    c = records["value_added"] / l_bar
    cap = math.inf if filters.max_productivity is None else filters.max_productivity
    code = np.select([dup, prior < 0, c <= 0.0, l_bar < filters.min_workers,
                      c > cap], np.arange(1, len(_BUILD_REASONS)), 0)

    keep = code == 0
    out = ~keep
    exclusions = _table(firm_id=ids[out], year=year[out],
                        reason=_BUILD_REASONS[code[out]])
    samples = _table(firm_id=ids[keep], year=year[keep],
                     sector_code=records["sector_code"][keep],
                     sector_class=records["sector_class"][keep],
                     c=c[keep], weight_workers=l_bar[keep])
    top = ()
    if filters.max_productivity is None and len(samples):
        # the ten largest c, descending, without sorting the rest
        k = max(len(samples) - 10, 0)
        top = tuple(np.sort(np.partition(samples["c"], k)[k:])[::-1].tolist())
    return BuildResult(samples=samples, exclusions=exclusions,
                       top_productivities=top)


def sector_aggregate(samples: np.ndarray, year: int) -> list[tuple[int, float]]:
    """Worker-weighted mean productivity per sector for one year.

    The weighting makes each sector value equal to the sector's total
    value added per averaged worker, sum(Y) / sum(L).
    """
    s = samples[samples["year"] == year]
    if not len(s):
        raise EmptyYear(f"no samples for year {year}")
    codes, w = s["sector_code"], s["weight_workers"]
    num = np.bincount(codes, weights=s["c"] * w)
    den = np.bincount(codes, weights=w)
    return [(code, float(num[code] / den[code]))
            for code in np.unique(codes).tolist()]


def ranksize(c, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Descending c and its rank fraction, ready for log-log plotting.

    Without weights the fraction is rank/n (firm plots); with weights it
    is the cumulative weight fraction (worker plots).  Tied values keep
    their input order.
    """
    c = np.asarray(c, dtype=np.float64)
    if not c.size:
        raise ValueError("ranksize needs at least one value")
    order = np.argsort(-c, kind="stable")
    cum = np.cumsum(np.ones(c.size) if weights is None
                    else np.asarray(weights, dtype=np.float64)[order])
    return c[order], cum / cum[-1]
