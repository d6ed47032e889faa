"""Two-party correlation tables: CHSH values, locality, Alice's settings.

The pipeline starts from the four correlations C(x, y) of two ±1 outcomes,
one for each pair of measurement settings (a or a' for Alice, b or b' for
Bob).  The CHSH combination C(a,b) + C(a,b') + C(a',b) - C(a',b') separates
local from nonlocal tables at 2 and tops out at 4.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import asdict, astuple, dataclass

NORM_TOL = 1e-12
#: Slack on a bound of the term sums: locality's 2, Tsirelson's 2 sqrt(2), causality's 4.
BOUND_TOL = 1e-12


class AliceSetting(enum.Enum):
    """Alice's measurement setting; she picks exactly one per pair."""

    A = "a"
    A_PRIME = "a'"


A = AliceSetting.A
A_PRIME = AliceSetting.A_PRIME

_MAX_SEED = 2**64
#: The largest noise level: from about 1e6 on the noisy TV is below the exact
#: oracle's 1e-6 accuracy, and near 1e153 squared noise overflows a float.
_MAX_SIGMA = 1e100


def _checked_int(value, name: str, what: str, low: int, high: float = math.inf) -> int:
    """`value` as a Python int in [low, high), numpy integers included; a
    ValueError asking for `what` if it is a bool, no integer or out of range."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not low <= number < high:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return number


def _checked_real(value, name: str, what: str, low: float, high: float = math.inf,
                  low_open: bool = False) -> float:
    """`value` as a finite float in [low, high] ((low, high] if `low_open`), numpy reals
    included; a ValueError asking for `what` if it is a bool, no real or out of range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer past the largest float
        number = math.nan
    if not (math.isfinite(number) and low <= number <= high) or low_open and number == low:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return number


def _checked_instance(value, name: str, kind: type):
    """`value` if it is a `kind`; otherwise a ValueError that names the argument."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


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
        for name, value in vars(self).items():
            value = _checked_real(value, name, "a real in [-1, 1]",
                                  -1.0 - NORM_TOL, 1.0 + NORM_TOL)
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return astuple(self)

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


# ---------------------------------------------------------------------------
# CHSH and locality
# ---------------------------------------------------------------------------

def chsh(table: CorrelationTable) -> float:
    """Signed CHSH value C(a,b) + C(a,b') + C(a',b) - C(a',b')."""
    return table.c_ab + table.c_abp + table.c_apb - table.c_apbp


def _term_pairs(c_ab: float, c_abp: float, c_apb: float, c_apbp: float):
    """((|x|, |y|), (|u|, |v|)): x, y = C(a,b)+C(a,b'), C(a',b)-C(a',b') and u, v the pair
    with b' negated.  The eight signed CHSH values are +/-(x +/- y) and +/-(u +/- v), and
    max(|p + q|, |p - q|) is |p| + |q| to the last bit: the larger sum is the largest |CHSH|."""
    return ((abs(c_ab + c_abp), abs(c_apb - c_apbp)),
            (abs(c_ab - c_abp), abs(c_apb + c_apbp)))


def classify_locality(table: CorrelationTable) -> Locality:
    """LOCAL iff all eight signed CHSH combinations, read as `_term_pairs` sums, stay within 2.

    For two settings and two uniform-marginal outcomes per party this
    inequality family (with |C| <= 1) is the complete facet description of
    the local correlation set (Fine, PRL 48:291, 1982), so it matches hull
    membership among the 16 deterministic boxes.  The tests check it against
    a linear program over those vertices.
    """
    bound = max(p + q for p, q in _term_pairs(*table.as_tuple()))
    return Locality.LOCAL if bound <= 2.0 + BOUND_TOL else Locality.NONLOCAL
