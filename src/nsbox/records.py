"""The records a signalling run reports and the formats they are stored in.

Detector and verdict names, the report itself, its JSON reader, and the
sweep CSV with one row per (C, N, R, sigma, detector).  Nothing here
imports numpy, so a command that reads stored reports (`nsbox export`)
starts without it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, TextIO

from .boxes import _checked_int, _checked_real


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


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------

SWEEP_CSV_HEADER = "C,N,R,sigma,detector,advantage,ci_low,ci_high,n_used,verdict"
SWEEP_CSV_ROW = "%.17g,%s,%s,%.17g,%s,%.17g,%.17g,%.17g,%s,%s\n"


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
