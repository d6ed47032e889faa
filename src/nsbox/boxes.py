"""Two-party boxes: construction, correlations, CHSH values, locality.

A box is the conditional joint law p(i, j | x, y) of two ±1 outcomes given
one measurement choice per party (two choices each).  Correlations are
C(x, y) = p(1,1) + p(-1,-1) - p(1,-1) - p(-1,1), and the CHSH combination
C(a,b) + C(a,b') + C(a',b) - C(a',b') separates local from nonlocal boxes
at 2 and tops out at 4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
CHSH_LOCAL_TOL = 1e-12


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class Choice(enum.Enum):
    FIRST = 0
    SECOND = 1


@dataclass(frozen=True)
class Setting:
    """One party's measurement choice (each party picks exactly one per pair)."""

    party: Party
    choice: Choice

    @property
    def label(self) -> str:
        base = "a" if self.party is Party.ALICE else "b"
        return base + ("'" if self.choice is Choice.SECOND else "")


A = Setting(Party.ALICE, Choice.FIRST)
A_PRIME = Setting(Party.ALICE, Choice.SECOND)
B = Setting(Party.BOB, Choice.FIRST)
B_PRIME = Setting(Party.BOB, Choice.SECOND)

ALICE_SETTINGS = (A, A_PRIME)
BOB_SETTINGS = (B, B_PRIME)


class Locality(enum.Enum):
    LOCAL = "local"
    NONLOCAL = "nonlocal"


@dataclass(frozen=True)
class CorrelationTable:
    """The four correlations C(a,b), C(a,b'), C(a',b), C(a',b')."""

    c_ab: float
    c_abp: float
    c_apb: float
    c_apbp: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if abs(value) > 1.0 + NORM_TOL:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c_ab, self.c_abp, self.c_apb, self.c_apbp)

    def as_dict(self) -> dict[str, float]:
        return {
            "c_ab": self.c_ab,
            "c_abp": self.c_abp,
            "c_apb": self.c_apb,
            "c_apbp": self.c_apbp,
        }


@dataclass(frozen=True)
class NoSignallingReport:
    ok: bool
    max_deviation: float
    worst_case: str


class BipartiteBox:
    """Conditional pmf p(i, j | x, y), stored as a (2, 2, 2, 2) array.

    Axes: [alice choice, bob choice, alice outcome, bob outcome], with
    outcome index 0 meaning +1 and index 1 meaning -1.  Construction checks
    probability range and per-setting normalization; no-signalling is a
    separate check so that signalling boxes can be built and diagnosed.
    """

    __slots__ = ("pmf",)

    def __init__(self, pmf: np.ndarray) -> None:
        arr = np.asarray(pmf, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"pmf must have shape (2, 2, 2, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pmf entries must be finite")
        if arr.min() < -NORM_TOL or arr.max() > 1.0 + NORM_TOL:
            raise ValueError("pmf entries must lie in [0, 1]")
        sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > NORM_TOL:
            raise ValueError(
                f"pmf must sum to 1 for each setting pair; sums = {sums.tolist()}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pmf", arr)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("BipartiteBox is immutable")

    def setting_block(self, x: Setting, y: Setting) -> np.ndarray:
        """The 2x2 outcome pmf for one setting pair."""
        _require_parties(x, y)
        return self.pmf[x.choice.value, y.choice.value]

    def alice_marginal(self, x: Setting, y: Setting) -> float:
        """P(i = +1) for Alice's setting x when Bob uses y."""
        return float(self.setting_block(x, y)[0].sum())

    def bob_marginal(self, y: Setting, x: Setting) -> float:
        """P(j = +1) for Bob's setting y when Alice uses x."""
        return float(self.setting_block(x, y)[:, 0].sum())


def _require_parties(x: Setting, y: Setting) -> None:
    if x.party is not Party.ALICE:
        raise ValueError(f"first setting must be Alice's, got {x.label}")
    if y.party is not Party.BOB:
        raise ValueError(f"second setting must be Bob's, got {y.label}")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

# ij products on the outcome axes: +1 on agreeing cells, -1 otherwise
_IJ = np.array([[1.0, -1.0], [-1.0, 1.0]])


def box_from_correlations(table: CorrelationTable) -> BipartiteBox:
    """Isotropic box p(i,j|x,y) = (1 + i*j*C(x,y)) / 4 for a correlation table.

    This is the unique box with uniform single-party marginals whose joint
    depends only on the four correlations; it is valid for every table.
    """
    corr = np.array(
        [[table.c_ab, table.c_abp], [table.c_apb, table.c_apbp]]
    )
    pmf = (1.0 + corr[:, :, None, None] * _IJ[None, None, :, :]) / 4.0
    return BipartiteBox(pmf)


def make_tilted_box(c: float) -> BipartiteBox:
    """Box with correlations (C, C, C, -C) and uniform marginals.

    Raises ValueError when |C| > 1.
    """
    if not math.isfinite(c) or abs(c) > 1.0:
        raise ValueError(f"correlation strength must lie in [-1, 1], got {c!r}")
    return box_from_correlations(CorrelationTable(c, c, c, -c))


def make_pr_box() -> BipartiteBox:
    """The extremal no-signalling box with correlations (1, 1, 1, -1)."""
    return make_tilted_box(1.0)


# ---------------------------------------------------------------------------
# Correlations and CHSH
# ---------------------------------------------------------------------------

def correlation(box: BipartiteBox, x: Setting, y: Setting) -> float:
    """C(x, y) = p(1,1) + p(-1,-1) - p(1,-1) - p(-1,1)."""
    block = box.setting_block(x, y)
    return float(block[0, 0] + block[1, 1] - block[0, 1] - block[1, 0])


def box_correlations(box: BipartiteBox) -> CorrelationTable:
    return CorrelationTable(
        c_ab=correlation(box, A, B),
        c_abp=correlation(box, A, B_PRIME),
        c_apb=correlation(box, A_PRIME, B),
        c_apbp=correlation(box, A_PRIME, B_PRIME),
    )


def chsh(table: CorrelationTable) -> float:
    """Signed CHSH value C(a,b) + C(a,b') + C(a',b) - C(a',b')."""
    return table.c_ab + table.c_abp + table.c_apb - table.c_apbp


def chsh_variants(table: CorrelationTable) -> tuple[float, float, float, float]:
    """The four CHSH combinations (one minus sign each); their ±abs give all eight."""
    t = table.as_tuple()
    signs = (
        (1, 1, 1, -1),
        (1, 1, -1, 1),
        (1, -1, 1, 1),
        (-1, 1, 1, 1),
    )
    return tuple(sum(s * v for s, v in zip(sg, t)) for sg in signs)


def check_no_signalling(box: BipartiteBox) -> NoSignallingReport:
    """Check that each party's outcome marginals ignore the remote setting.

    Returns ok (every deviation within `NORM_TOL`) plus the largest marginal
    deviation found and where it occurs.
    """
    worst = 0.0
    worst_case = "none"
    for x in ALICE_SETTINGS:
        dev = abs(box.alice_marginal(x, B) - box.alice_marginal(x, B_PRIME))
        if dev > worst:
            worst, worst_case = dev, f"P(outcome | {x.label}) depends on Bob's setting"
    for y in BOB_SETTINGS:
        dev = abs(box.bob_marginal(y, A) - box.bob_marginal(y, A_PRIME))
        if dev > worst:
            worst, worst_case = dev, f"P(outcome | {y.label}) depends on Alice's setting"
    return NoSignallingReport(ok=worst <= NORM_TOL, max_deviation=worst, worst_case=worst_case)


# ---------------------------------------------------------------------------
# Locality classification
# ---------------------------------------------------------------------------

def classify_locality(table: CorrelationTable) -> Locality:
    """LOCAL iff all eight signed CHSH combinations stay within 2.

    For two settings and two uniform-marginal outcomes per party this
    inequality family (with |C| <= 1) is the complete facet description of
    the local correlation set (Fine, PRL 48:291, 1982), so it matches hull
    membership among the 16 deterministic boxes.  The tests check it against
    a linear program over those vertices.
    """
    bound = max(abs(v) for v in chsh_variants(table))
    return Locality.LOCAL if bound <= 2.0 + CHSH_LOCAL_TOL else Locality.NONLOCAL

