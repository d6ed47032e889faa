"""The records a signalling run reports and the formats they are stored in.

Detector and verdict names, the report itself, and every stored layout:
the readers of stored reports and batch CSVs, and the header and rows of
each CSV the CLI writes.  Nothing here imports numpy, so a command that
reads stored reports (`nsbox export`) starts without it.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Sequence, TextIO

from .boxes import _MAX_SIGMA, A, A_PRIME, _checked_int, _checked_real


class Detector(enum.Enum):
    COVARIANCE_SIGN = "cov"
    POSTSELECT_EXTREMES = "postselect"
    LIKELIHOOD = "lr"


class Verdict(enum.Enum):
    SIGNALLING = "signalling"
    NO_SIGNALLING = "no_signalling"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SignallingReport:
    advantage: float
    ci_low: float
    ci_high: float
    n_used: int
    verdict: Verdict
    n_trials: int
    suggested_repetitions: float | None

    def __post_init__(self) -> None:
        if not self.ci_low <= self.advantage <= self.ci_high:
            raise ValueError("confidence interval must contain the advantage")


def report_from_json(data: dict) -> SignallingReport:
    suggested = data.get("suggested_repetitions")
    return SignallingReport(
        *(_checked_real(data[key], key, "a real in [0, 1]", 0.0, 1.0)
          for key in ("advantage", "ci_low", "ci_high")),
        n_used=_checked_int(data["n_used"], "n_used", "a nonnegative integer", 0),
        verdict=Verdict(data["verdict"]),
        n_trials=_checked_int(data["n_trials"], "n_trials", "a nonnegative integer", 0),
        suggested_repetitions=None if suggested is None else _checked_real(
            suggested, "suggested_repetitions", "a positive real", 0.0, low_open=True),
    )


def _sweep_row(data) -> SweepRow:
    """The advantage-curve row of one stored simulate-signalling report."""
    if not isinstance(data, dict) or data.get("command") != "simulate-signalling":
        raise ValueError("not a simulate-signalling report")
    cfg = data["config"]
    return SweepRow(
        c=_checked_real(cfg["C"], "C", "a real in [0, 1]", 0.0, 1.0),
        n_pairs=_checked_int(cfg["N"], "N", "a positive integer", 1),
        repetitions=_checked_int(cfg["reps"], "reps", "a positive integer", 1),
        sigma=_checked_real(cfg["sigma"], "sigma", f"a real in [0, {_MAX_SIGMA:g}]", 0.0,
                            _MAX_SIGMA),
        detector=Detector(cfg["detector"]),
        report=report_from_json(data["report"]),
    )


def read_batch_histogram(stream: TextIO) -> dict[tuple[str, float], int]:
    """The count of each (strategy, B + B' to 12 places) in a batch CSV, its fields
    found as csv.DictReader finds them: a repeated name means its last column,
    blank lines are skipped, and a short row reads None at its end.  Each
    (strategy, B, B') text is parsed at its first row, so a bad field (a bad B
    before a missing Bprime column) raises there, as a parse of every row would;
    a missing column or malformed CSV raises ValueError."""
    counts: dict[tuple[str, float], int] = {}
    keys: dict[tuple, tuple[str, float]] = {}
    try:
        reader = csv.reader(stream)
        header = next(reader, [])
        at = {name: k for k, name in enumerate(header)}
        for row in filter(None, reader):
            row += [None] * (len(header) - len(row))
            strategy = row[at["strategy"]]
            if strategy is None:
                raise ValueError(f"line {reader.line_num} has no field 'strategy'")
            text = (strategy, row[at["B"]], row[at["Bprime"]] if "Bprime" in at else None)
            key = keys.get(text)
            if key is None:
                b = float(text[1])
                key = keys[text] = (strategy, round(b + float(row[at["Bprime"]]), 12))
            counts[key] = counts.get(key, 0) + 1
    except KeyError as exc:
        raise ValueError(f"missing column {exc}") from None
    except csv.Error as exc:
        raise ValueError(exc) from None
    return counts


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------

SWEEP_CSV_HEADER = "C,N,R,sigma,detector,advantage,ci_low,ci_high,n_used,verdict"
SWEEP_CSV_ROW = "%.17g,%s,%s,%.17g,%s,%.17g,%.17g,%.17g,%s,%s\n"
BATCH_CSV_HEADER = "batch_index,strategy,N,A,B,Bprime,noisyB,noisyBprime,seed"
#: The `strategy` field of an arm: Alice's setting on every pair of it.
BATCH_CSV_LABEL = {A: "always_a", A_PRIME: "always_aprime"}
BOUNDS_CSV_HEADER = ("c_ab,c_abp,c_apb,c_apbp,chsh,causality_lhs,causality_ok,tsirelson_ok,"
                     "lower_bound_a,lower_bound_ap,budget_total")
BOUNDS_CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"
COUPLINGS_CSV_HEADER = "arm,i,j,jp,probability"
COUPLINGS_CSV_ROW = "%s,%d,%d,%d,%.17g\n"
#: Each frontier grid's row template by its header, general then symmetric; the
#: rows are lower-cased, so booleans read as in JSON.
GRID_CSV_ROWS = {"x,y,chsh,causality_margin": "%.17g,%.17g,%.17g,%.17g\n",
                 "C,chsh,causality_lhs,feasible": "%.17g,%.17g,%.17g,%s\n"}
HISTOGRAM_CSV_HEADER = "strategy,value,count"


@dataclass(frozen=True)
class SweepRow:
    c: float
    n_pairs: int
    repetitions: int
    sigma: float
    detector: Detector
    report: SignallingReport

    def csv_line(self) -> str:
        r = self.report
        return SWEEP_CSV_ROW % (self.c, self.n_pairs, self.repetitions, self.sigma,
                                self.detector.value, r.advantage, r.ci_low, r.ci_high,
                                r.n_used, r.verdict.value)

    def csv_fields(self) -> list[str]:
        """The fields of `csv_line`, none of which holds a comma."""
        return self.csv_line()[:-1].split(",")


def write_sweep_csv(stream: TextIO, rows: Sequence[SweepRow]) -> None:
    """One line per row; csv.writer would quote none of the fields."""
    stream.write(SWEEP_CSV_HEADER + "\n" + "".join(row.csv_line() for row in rows))


def csv_rows(template: str, columns: Sequence) -> str:
    """``template % row`` for each row of the columns (sequences of Python
    values), for fields csv.writer never quotes."""
    return "".join(template % row for row in zip(*columns))


def write_bounds_csv(stream: TextIO, values: dict) -> None:
    """The header and one row of `values`, a dict holding every header field;
    `%s` writes each float and bool as csv.writer does, by str()."""
    row = tuple(values[name] for name in BOUNDS_CSV_HEADER.split(","))
    stream.write(BOUNDS_CSV_HEADER + "\n" + BOUNDS_CSV_ROW % row)


def write_couplings_csv(stream: TextIO, couplings: dict) -> None:
    """Eight rows per arm of {arm: coupling JSON}, one per cell in the JSON's order."""
    from .coupling import I_VALUES, J_VALUES, JP_VALUES

    cells = list(zip(I_VALUES, J_VALUES, JP_VALUES))
    stream.write(COUPLINGS_CSV_HEADER + "\n" + "".join(
        COUPLINGS_CSV_ROW % (arm, *cell, p)
        for arm, data in couplings.items() for cell, p in zip(cells, data["pmf"])))


def write_grid_csv(stream: TextIO, grid: dict[str, list]) -> None:
    """A frontier grid (named columns of floats or bools), one row per point."""
    header = ",".join(grid)
    stream.write(header + "\n" + csv_rows(GRID_CSV_ROWS[header], grid.values()).lower())


def write_histogram_csv(stream: TextIO, counts: dict[tuple[str, float], int]) -> None:
    """One row per (strategy, value) in order, the value to 17 significant
    digits; a strategy read from a batch file is quoted as csv.writer quotes it."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HISTOGRAM_CSV_HEADER.split(","))
    writer.writerows([strategy, f"{value:.17g}", n]
                     for (strategy, value), n in sorted(counts.items()))
