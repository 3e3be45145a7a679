"""Named degree-sequence predicates with exact thresholds.

Indexing is 1-based to match the usual d_1 <= ... <= d_n convention.  The
interesting sharpness phenomena live exactly at off-by-one boundaries near
i = n/r, so floating point is never used.  Empty index ranges (n/r <= 1)
report satisfied with an explicit vacuity flag.

Every condition but ``ore`` is a threshold condition on the sorted
(dominant) degree sequence, so its decision comes from an integer vector
t_1..t_n: each entry is the ceiling of the exact rational threshold, 0
outside the checked range, and `first_violation` finds the first i with
d_i < t_i in one comparison.  The reports take ``satisfied`` and the first
violating index from that comparison; their slacks stay exact rationals.
``ore``, a condition on non-adjacent pairs, is the one pairwise checker.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .graphs import Digraph, Graph
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

    def thresholds(self, n: int) -> list[int]:
        """The integer vector t_1..t_n of this condition at order n, for
        `first_violation`; every name of the table but ore has one."""
        if self.name not in _THRESHOLDS:
            raise ValueError(f"condition {self.name!r} has no threshold vector")
        return _THRESHOLDS[self.name](n, self.r, self.gamma)


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


def sorted_degrees(g: Graph | Digraph) -> list[int]:
    """d_1 <= ... <= d_n read off the rows: the degrees of a graph, the
    dominant degrees max(d+, d-) of a digraph."""
    if isinstance(g, Digraph):
        return sorted(map(max, map(int.bit_count, g.out), map(int.bit_count, g.inn)))
    return sorted(map(int.bit_count, g.adj))


def first_violation(seq: Sequence[int], t: Sequence[int]) -> int | None:
    """The first 1-based index i with d_i < t_i, or None.

    An index of ``t`` past the end of ``seq`` counts as violated: part (b)
    of the exact condition reads d_1 at n = 0.
    """
    for i, (d, bound) in enumerate(zip(seq, t), 1):
        if d < bound:
            return i
    return len(seq) + 1 if len(t) > len(seq) else None


# -- threshold vectors, (n, r, gamma) -> t_1..t_n ------------------------------


def _ceil_threshold(n: int, c: int, r: int, gamma: Fraction) -> int:
    """ceil(c*n/r + gamma*n), in integers."""
    q = gamma.denominator
    return -(-n * (c * q + r * gamma.numerator) // (r * q))


def _indexed_thresholds(n: int, r: int, gamma: Fraction) -> list[int]:
    """d_i >= (r-2)n/r + i + gamma*n for 1 <= i < n/r."""
    t = [0] * n
    base = _ceil_threshold(n, r - 2, r, gamma)
    for i in range(1, (n - 1) // r + 1):  # exactly the i with i < n/r
        t[i - 1] = base + i
    return t


def _exact_thresholds(n: int, r: int, gamma: Fraction) -> list[int]:
    """(a) d_i >= (r-2)n/r + i for i < n/r, and (b) d_{n/r+1} >= (r-1)n/r;
    r must divide n, and the condition has no margin."""
    if n % r != 0:
        raise ValueError(f"divisibility violated: r={r} must divide n={n}")
    t = _indexed_thresholds(n, r, Fraction(0))
    # (b) is read literally; its index lies past d_n only at n = 0
    t[n // r : n // r + 1] = [(r - 1) * n // r]
    return t


def _min_degree_thresholds(n: int, r: int, gamma: Fraction) -> list[int]:
    """d_1 >= (1 - 1/r + gamma)n."""
    return [_ceil_threshold(n, r - 1, r, gamma)] + [0] * (n - 1) if n else []


def _posa_thresholds(n: int, r: int, gamma: Fraction) -> list[int]:
    """d_i >= i+1 for i < (n-1)/2, and d_{ceil(n/2)} >= ceil(n/2) for odd n."""
    t = [0] * n
    for i in range(1, (n - 2) // 2 + 1):  # exactly the i with i < (n-1)/2
        t[i - 1] = i + 1
    if n % 2:
        t[n // 2] = (n + 1) // 2
    return t


# -- reports ------------------------------------------------------------------


def _indexed_check(name: str, g: Graph | Digraph, r: int, t: list[int]) -> ConditionReport:
    """The report of an indexed vector ``t``; the slacks are d_i - ((r-2)n/r + i)
    for 1 <= i < n/r, without any margin."""
    seq = sorted_degrees(g)
    first_bad = first_violation(seq, t)
    base = (r - 2) * g.n
    slacks = tuple(Fraction(r * (seq[i - 1] - i) - base, r) for i in range(1, (g.n - 1) // r + 1))
    return ConditionReport(
        name,
        satisfied=first_bad is None,
        vacuous=not slacks,
        first_violating_index=first_bad,
        slack_profile=slacks,
        detail=None if slacks else "index range empty",
    )


def check_exact_sequence(g: Graph, r: int) -> ConditionReport:
    """The two-part exact condition: (a) d_i >= (r-2)n/r + i for i < n/r,
    and (b) d_{n/r+1} >= (r-1)n/r.  Requires r | n.

    Part (b) is evaluated literally at index n/r + 1 even in tiny corner
    cases where part (a)'s range is empty.
    """
    if r < 2:
        raise ValueError("r >= 2 required")
    return _exact(g, r, Fraction(0))


def _exact(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    # the condition table's signature; the exact condition has no margin
    t = _exact_thresholds(g.n, r, gamma)
    report = _indexed_check(f"exact(r={r})", g, r, t)
    beta_index = g.n // r + 1
    if report.satisfied:
        detail = "vacuous (a) range" if report.vacuous else None
    elif report.first_violating_index == beta_index:
        detail = f"(b) violated: d_{beta_index} < {t[beta_index - 1]}"
    else:
        detail = "(a) violated"
    return replace(report, detail=detail)


def check_margin_sequence(g: Graph, r: int, gamma) -> ConditionReport:
    """d_i >= (r-2)n/r + i + gamma*n for all i < n/r (strict range)."""
    if r < 2:
        raise ValueError("r >= 2 required")
    gamma = as_fraction(gamma)
    t = _indexed_thresholds(g.n, r, gamma)
    return _indexed_check(f"margin(r={r},gamma={gamma})", g, r, t)


def check_dominant_margin(d: Digraph, r: int, gamma) -> ConditionReport:
    """The digraph analogue over the dominant degree sequence."""
    if r < 2:
        raise ValueError("r >= 2 required")
    gamma = as_fraction(gamma)
    t = _indexed_thresholds(d.n, r, gamma)
    return _indexed_check(f"dominant-margin(r={r},gamma={gamma})", d, r, t)


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


def _min_degree_check(name: str, g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    seq = sorted_degrees(g)
    first_bad = first_violation(seq, _min_degree_thresholds(g.n, r, gamma))
    threshold = Fraction((r - 1) * g.n, r) + gamma * g.n
    return ConditionReport(
        name,
        satisfied=first_bad is None,
        first_violating_index=first_bad,
        slack_profile=((seq[0] if seq else 0) - threshold,),
    )


def _hajnal_szemeredi(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    return _min_degree_check("hajnal-szemeredi", g, r, Fraction(0))


def _alon_yuster(g: Graph, r: int, gamma: Fraction) -> ConditionReport:
    return _min_degree_check("alon-yuster", g, r, gamma)


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
    seq = sorted_degrees(g)
    t = _posa_thresholds(g.n, r, gamma)
    # every checked entry of t is positive, so its slacks are the d_i - t_i with t_i > 0
    slacks = tuple(Fraction(d - bound) for d, bound in zip(seq, t) if bound)
    first_bad = first_violation(seq, t)
    return ConditionReport(
        "posa",
        satisfied=first_bad is None,
        vacuous=not slacks,
        first_violating_index=first_bad,
        slack_profile=slacks,
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

# every condition name but ore: its threshold vector (n, r, gamma), which the
# checker above of the same name decides by
_THRESHOLDS = {
    "exact": _exact_thresholds,
    "margin": _indexed_thresholds,
    "dominant-margin": _indexed_thresholds,
    "hajnal-szemeredi": lambda n, r, gamma: _min_degree_thresholds(n, r, Fraction(0)),
    "alon-yuster": _min_degree_thresholds,
    "posa": _posa_thresholds,
}

# the classical hypotheses, in report order
_BASELINES = ("hajnal-szemeredi", "alon-yuster", "ore", "posa")
