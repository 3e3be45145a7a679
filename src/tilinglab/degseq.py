"""Named degree-sequence predicates with exact rational thresholds.

Indexing is 1-based to match the usual d_1 <= ... <= d_n convention.  All
thresholds are computed in exact rational arithmetic; the interesting
sharpness phenomena live exactly at off-by-one boundaries near i = n/r, so
floating point is never used.  Empty index ranges (n/r <= 1) report
satisfied with an explicit vacuity flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .graphs import Digraph, Graph, degree_sequence, dominant_degree_sequence
from .util import as_fraction


@dataclass(frozen=True)
class DegreeCondition:
    """A named, parameterised predicate on (dominant) degree sequences.

    The name is one of the condition table's and fixes the host kind.
    """

    name: str
    r: int
    gamma: Fraction = Fraction(0)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("r >= 2 required")
        if self.gamma < 0:
            raise ValueError("gamma >= 0 required")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a degree-sequence check.

    ``slack_profile`` lists d_i - ((r-2)n/r + i) for every checked index i
    (1-based), independent of any gamma margin; ``slack_min`` is its
    minimum (None when the range was empty).  For conditions that are not
    indexed (minimum-degree style) the profile holds the single slack of
    the binding quantity.
    """

    name: str
    satisfied: bool
    vacuous: bool = False
    first_violating_index: int | None = None
    slack_profile: tuple[Fraction, ...] = field(default=())
    detail: str | None = None

    @property
    def slack_min(self) -> Fraction | None:
        return min(self.slack_profile) if self.slack_profile else None

    def to_json_obj(self) -> dict:
        sm = self.slack_min
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "first_violating_index": self.first_violating_index,
            "slack_min": None if sm is None else str(sm),
            "detail": self.detail,
        }


def _indexed_check(name: str, seq: list[int], r: int, gamma: Fraction) -> ConditionReport:
    """d_i >= (r-2)n/r + i + gamma*n for 1 <= i < n/r.

    Compared scaled by r, in integers: r(d_i - i) - (r-2)n against the
    ceiling of r*gamma*n, which decides the same for an integer left side.
    """
    n = len(seq)
    base = (r - 2) * n
    margin = ceil(r * gamma * n)
    slacks = []
    first_bad = None
    for i in range(1, (n - 1) // r + 1):  # exactly the i with i < n/r
        scaled = r * (seq[i - 1] - i) - base
        slacks.append(Fraction(scaled, r))
        if scaled < margin and first_bad is None:
            first_bad = i
    vacuous = not slacks
    return ConditionReport(
        name,
        satisfied=first_bad is None,
        vacuous=vacuous,
        first_violating_index=first_bad,
        slack_profile=tuple(slacks),
        detail="index range empty" if vacuous else None,
    )


def check_exact_sequence(g: Graph, r: int) -> ConditionReport:
    """The two-part exact condition: (a) d_i >= (r-2)n/r + i for i < n/r,
    and (b) d_{n/r+1} >= (r-1)n/r.  Requires r | n.

    Part (b) is evaluated literally at index n/r + 1 even in tiny corner
    cases where part (a)'s range is empty.
    """
    return _exact(g, r, Fraction(0))


def _exact(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    # the condition table's signature; the exact condition has no margin
    n = g.n
    if r < 2:
        raise ValueError("r >= 2 required")
    if n % r != 0:
        raise ValueError(f"divisibility violated: r={r} must divide n={n}")
    seq = degree_sequence(g)
    alpha = _indexed_check(f"exact(r={r})", seq, r, Fraction(0))
    beta_index = n // r + 1
    beta_threshold = Fraction((r - 1) * n, r)
    beta_ok = beta_index <= n and Fraction(seq[beta_index - 1]) >= beta_threshold
    satisfied = alpha.satisfied and beta_ok
    if not alpha.satisfied:
        first_bad = alpha.first_violating_index
        detail = "(a) violated"
    elif not beta_ok:
        first_bad = beta_index
        detail = f"(b) violated: d_{beta_index} < {beta_threshold}"
    else:
        first_bad = None
        detail = "vacuous (a) range" if alpha.vacuous else None
    return ConditionReport(
        f"exact(r={r})",
        satisfied=satisfied,
        vacuous=alpha.vacuous,
        first_violating_index=first_bad,
        slack_profile=alpha.slack_profile,
        detail=detail,
    )


def check_margin_sequence(g: Graph, r: int, gamma) -> ConditionReport:
    """d_i >= (r-2)n/r + i + gamma*n for all i < n/r (strict range)."""
    if r < 2:
        raise ValueError("r >= 2 required")
    return _indexed_check(
        f"margin(r={r},gamma={as_fraction(gamma)})",
        degree_sequence(g),
        r,
        as_fraction(gamma),
    )


def check_dominant_margin(d: Digraph, r: int, gamma) -> ConditionReport:
    """The digraph analogue over the dominant degree sequence."""
    if r < 2:
        raise ValueError("r >= 2 required")
    seq, _ = dominant_degree_sequence(d)
    return _indexed_check(
        f"dominant-margin(r={r},gamma={as_fraction(gamma)})", seq, r, as_fraction(gamma)
    )


def evaluate(condition: DegreeCondition, g: Graph | Digraph) -> ConditionReport:
    """The report of a condition object, by the checker its name selects."""
    return check_baseline(g, condition.name, condition.r, condition.gamma)


def check_baselines(g: Graph, r: int, gamma=0) -> dict[str, ConditionReport]:
    """The classical hypotheses, one report each.

    hajnal-szemeredi: delta >= (1-1/r) n
    alon-yuster:      delta >= (1-1/r+gamma) n
    ore:              d(x)+d(y) >= 2(1-1/r)n - 1 for all non-adjacent x != y
    posa:             d_i >= i+1 for i < (n-1)/2, plus the odd-n middle
                      condition d_{ceil(n/2)} >= ceil(n/2)
    """
    return {name: check_baseline(g, name, r, gamma) for name in _BASELINES}


def check_baseline(g: Graph | Digraph, name: str, r: int, gamma=0) -> ConditionReport:
    """The report of the condition called ``name``: a baseline of
    `check_baselines` or any other name of the condition table.

    Unlike a `DegreeCondition`, gamma may be negative here.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"unknown condition name {name!r}")
    host, check = _CONDITIONS[name]
    if not isinstance(g, host):
        raise ValueError(f"condition {name} needs a {host.kind}")
    if r < 2:
        raise ValueError("r >= 2 required")
    return check(g, r, as_fraction(gamma))


def _min_degree_check(name: str, g: Graph, threshold: Fraction) -> ConditionReport:
    seq = degree_sequence(g)
    delta = Fraction(seq[0]) if seq else Fraction(0)
    return ConditionReport(
        name,
        satisfied=delta >= threshold,
        first_violating_index=None if delta >= threshold else 1,
        slack_profile=(delta - threshold,),
    )


def _hajnal_szemeredi(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    return _min_degree_check("hajnal-szemeredi", g, Fraction((r - 1) * g.n, r))


def _alon_yuster(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    return _min_degree_check("alon-yuster", g, Fraction((r - 1) * g.n, r) + gamma * g.n)


def _ore(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    n = g.n
    ore_threshold = 2 * Fraction((r - 1) * n, r) - 1
    ore_worst: Fraction | None = None
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                s = Fraction(g.degree(u) + g.degree(v)) - ore_threshold
                if ore_worst is None or s < ore_worst:
                    ore_worst = s
    return ConditionReport(
        "ore",
        satisfied=ore_worst is None or ore_worst >= 0,
        vacuous=ore_worst is None,
        slack_profile=() if ore_worst is None else (ore_worst,),
        detail="no non-adjacent pairs" if ore_worst is None else None,
    )


def _posa(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    n = g.n
    seq = degree_sequence(g)
    posa_slacks = []
    posa_bad = None
    for i in range(1, (n - 2) // 2 + 1):  # exactly the i with i < (n-1)/2
        posa_slacks.append(Fraction(seq[i - 1] - (i + 1)))
        if seq[i - 1] < i + 1 and posa_bad is None:
            posa_bad = i
    if n % 2 == 1 and n >= 1:
        mid = (n + 1) // 2
        posa_slacks.append(Fraction(seq[mid - 1] - mid))
        if seq[mid - 1] < mid and posa_bad is None:
            posa_bad = mid
    return ConditionReport(
        "posa",
        satisfied=posa_bad is None,
        vacuous=not posa_slacks,
        first_violating_index=posa_bad,
        slack_profile=tuple(posa_slacks),
    )


# every condition name: the host class it needs and its checker (g, r, gamma);
# evaluate, check_baseline and check_baselines resolve names here
_CONDITIONS = {
    "exact": (Graph, _exact),
    "margin": (Graph, check_margin_sequence),
    "dominant-margin": (Digraph, check_dominant_margin),
    "hajnal-szemeredi": (Graph, _hajnal_szemeredi),
    "alon-yuster": (Graph, _alon_yuster),
    "ore": (Graph, _ore),
    "posa": (Graph, _posa),
}

# the classical hypotheses, in report order
_BASELINES = ("hajnal-szemeredi", "alon-yuster", "ore", "posa")
