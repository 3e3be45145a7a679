"""Named degree-sequence predicates with exact thresholds.

Indexing is 1-based to match the usual d_1 <= ... <= d_n convention.  The
interesting sharpness phenomena live exactly at off-by-one boundaries near
i = n/r, so floating point is never used.  Empty index ranges (n/r <= 1)
report satisfied with an explicit vacuity flag.

Every condition but ``ore`` is a threshold condition on the sorted
(dominant) degree sequence, and one row of the condition table: its host
kind and a function giving, at order n, the integer vector t_1..t_n (each
entry the ceiling of the exact rational threshold, 0 outside the checked
range) and the references its slacks are measured from.  One report
builder takes ``satisfied`` and the first violating index from
`first_violation` (the first i with d_i < t_i) and the exact rational
slacks from the references, in integers.  ``ore``, a condition on
non-adjacent pairs, is the one pairwise checker.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from operator import lt

from .graphs import Digraph, Graph, degree_sequence
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
        vector = _CONDITIONS.get(self.name, (None, None))[1]
        if vector is None:
            raise ValueError(f"condition {self.name!r} has no threshold vector")
        return vector(n, self.r, self.gamma)[0]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a degree-sequence check.

    ``slack_profile`` lists exact rational slacks; ``slack_min`` is their
    minimum (None when there is none):

    * margin, dominant-margin and exact: d_i - ((r-2)n/r + i) for every
      1 <= i < n/r (1-based), without the gamma*n margin; exact profiles
      only its part (a), not the d_{n/r+1} of part (b);
    * hajnal-szemeredi: the one slack d_1 - (1-1/r)n, and alon-yuster:
      d_1 - (1-1/r+gamma)n, margin included (d_1 reads 0 at n = 0);
    * posa: d_i - t_i for every checked index i;
    * ore: the least d(x) + d(y) - (2(1-1/r)n - 1) over non-adjacent pairs.
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


def first_violation(seq: Sequence[int], t: Sequence[int]) -> int | None:
    """The first 1-based index i with d_i < t_i, or None.

    An index of ``t`` past the end of ``seq`` counts as violated: part (b)
    of the exact condition reads d_1 at n = 0.
    """
    first = next(compress(count(1), map(lt, seq, t)), None)
    return len(seq) + 1 if first is None and len(t) > len(seq) else first


# -- threshold vectors, (n, r, gamma) -> (t, den, refs) --------------------------
#
# t is t_1..t_n; refs lists (i, rho_i * den) for every index the slack profile
# covers, rho_i being the exact rational the slack d_i - rho_i is taken from,
# so every slack is made in integers as Fraction(den * d_i - rho_i * den, den).


def _indexed_thresholds(n: int, r: int, gamma: Fraction) -> tuple[list[int], int, list]:
    """d_i >= (r-2)n/r + i + gamma*n for 1 <= i < n/r; the slacks are
    d_i - ((r-2)n/r + i), without the margin."""
    k = max(0, (n - 1) // r)  # the i with i < n/r are 1..k
    q = gamma.denominator
    base = -(-n * ((r - 2) * q + r * gamma.numerator) // (r * q))  # ceil((r-2)n/r + gamma*n)
    t = list(range(base + 1, base + k + 1)) + [0] * (n - k)
    c = (r - 2) * n
    return t, r, list(zip(range(1, k + 1), range(c + r, c + r * (k + 1), r)))


def _exact_thresholds(n: int, r: int, gamma: Fraction) -> tuple[list[int], int, list]:
    """(a) d_i >= (r-2)n/r + i for i < n/r, and (b) d_{n/r+1} >= (r-1)n/r;
    r must divide n, the condition has no margin, and the slacks are (a)'s."""
    if n % r != 0:
        raise ValueError(f"divisibility violated: r={r} must divide n={n}")
    t, den, refs = _indexed_thresholds(n, r, Fraction(0))
    # (b) is read literally; its index lies past d_n only at n = 0
    t[n // r : n // r + 1] = [(r - 1) * n // r]
    return t, den, refs


def _min_degree_thresholds(n: int, r: int, gamma: Fraction) -> tuple[list[int], int, list]:
    """d_1 >= (1 - 1/r + gamma)n, with that one slack, also at n = 0."""
    q = gamma.denominator
    num, den = n * ((r - 1) * q + r * gamma.numerator), r * q
    return ([-(-num // den)] + [0] * (n - 1) if n else []), den, [(1, num)]


def _posa_thresholds(n: int, r: int, gamma: Fraction) -> tuple[list[int], int, list]:
    """d_i >= i+1 for i < (n-1)/2, and d_{ceil(n/2)} >= ceil(n/2) for odd n;
    the slacks are the d_i - t_i of these indices."""
    k = max(0, (n - 2) // 2)  # the i with i < (n-1)/2 are 1..k
    t = list(range(2, k + 2)) + [0] * (n - k)
    refs = list(zip(range(1, k + 1), t))
    if n % 2:
        t[n // 2] = (n + 1) // 2
        refs.append((n // 2 + 1, t[n // 2]))
    return t, 1, refs


# every condition name: the host class it needs and, for a threshold
# condition, its vector (n, r, gamma) -> (t, den, refs); ore, the one
# condition on pairs, has none.  Every checker resolves names here.
_CONDITIONS = {
    "exact": (Graph, _exact_thresholds),
    "margin": (Graph, _indexed_thresholds),
    "dominant-margin": (Digraph, _indexed_thresholds),
    "hajnal-szemeredi": (Graph, lambda n, r, gamma: _min_degree_thresholds(n, r, Fraction(0))),
    "alon-yuster": (Graph, _min_degree_thresholds),
    "ore": (Graph, None),
    "posa": (Graph, _posa_thresholds),
}

# the classical hypotheses, in report order
_BASELINES = ("hajnal-szemeredi", "alon-yuster", "ore", "posa")


# -- reports ------------------------------------------------------------------


def _report(name: str, seq: list[int], r: int, gamma: Fraction, t, den, refs) -> ConditionReport:
    """The report of the threshold condition ``name`` on the sorted sequence
    ``seq``, from its vector ``t`` and slack references ``refs``; d_1 of the
    empty sequence reads 0."""
    first_bad = first_violation(seq, t)
    d = seq or [0]
    nums = [den * d[i - 1] - num for i, num in refs]
    slacks = tuple(map(Fraction, nums, repeat(den)))
    label, detail = name, None
    if name == "exact":
        label, beta_index = f"exact(r={r})", len(seq) // r + 1
        if first_bad is None:
            detail = None if refs else "vacuous (a) range"
        elif first_bad == beta_index:
            detail = f"(b) violated: d_{beta_index} < {t[beta_index - 1]}"
        else:
            detail = "(a) violated"
    elif name in ("margin", "dominant-margin"):
        label = f"{name}(r={r},gamma={gamma})"
        detail = None if refs else "index range empty"
    return ConditionReport(label, first_bad is None, not refs, first_bad, slacks, detail)


def _ore(g: Graph, r: int) -> ConditionReport:
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    classes: dict[int, int] = {}
    for v, d in enumerate(deg):
        classes[d] = classes.get(d, 0) | 1 << v
    by_degree = sorted(classes.items())
    # the least d(u) + d(v) over non-adjacent pairs, in integers: for each u,
    # the least degree whose class holds a non-neighbour of u
    least = None
    for u, row in enumerate(g.adj):
        others = ~(row | 1 << u)
        for d, members in by_degree:
            if others & members:
                if least is None or deg[u] + d < least:
                    least = deg[u] + d
                break
    if least is None:
        return ConditionReport("ore", True, True, detail="no non-adjacent pairs")
    # d(u) + d(v) - (2(1 - 1/r)n - 1)
    slack = Fraction(r * (least + 1) - 2 * (r - 1) * n, r)
    return ConditionReport("ore", slack >= 0, slack_profile=(slack,))


def check_baseline(g: Graph | Digraph, name: str, r: int, gamma=0) -> ConditionReport:
    """The report of the condition called ``name``: a baseline of
    `check_baselines` or any other name of the condition table.

    Unlike a `DegreeCondition`, gamma may be negative here.
    """
    if name not in _CONDITIONS:
        raise ValueError(f"unknown condition name {name!r}")
    host, vector = _CONDITIONS[name]
    if not isinstance(g, host):
        raise ValueError(f"condition {name} needs a {host.kind}")
    if r < 2:
        raise ValueError("r >= 2 required")
    gamma = as_fraction(gamma)
    if vector is None:
        return _ore(g, r)
    return _report(name, degree_sequence(g), r, gamma, *vector(g.n, r, gamma))


def check_baselines(g: Graph, r: int, gamma=0) -> dict[str, ConditionReport]:
    """The classical hypotheses, one report each.

    hajnal-szemeredi: delta >= (1-1/r) n
    alon-yuster:      delta >= (1-1/r+gamma) n
    ore:              d(x)+d(y) >= 2(1-1/r)n - 1 for all non-adjacent x != y
    posa:             d_i >= i+1 for i < (n-1)/2, plus the odd-n middle
                      condition d_{ceil(n/2)} >= ceil(n/2)
    """
    return {name: check_baseline(g, name, r, gamma) for name in _BASELINES}


def check_exact_sequence(g: Graph, r: int) -> ConditionReport:
    """The two-part exact condition: (a) d_i >= (r-2)n/r + i for i < n/r,
    and (b) d_{n/r+1} >= (r-1)n/r.  Requires r | n.

    Part (b) is evaluated literally at index n/r + 1 even in tiny corner
    cases where part (a)'s range is empty.
    """
    return check_baseline(g, "exact", r)


def check_margin_sequence(g: Graph, r: int, gamma) -> ConditionReport:
    """d_i >= (r-2)n/r + i + gamma*n for all i < n/r (strict range)."""
    return check_baseline(g, "margin", r, gamma)


def check_dominant_margin(d: Digraph, r: int, gamma) -> ConditionReport:
    """The digraph analogue over the dominant degree sequence."""
    return check_baseline(d, "dominant-margin", r, gamma)


def evaluate(condition: DegreeCondition, g: Graph | Digraph) -> ConditionReport:
    """The report of a condition object, by the checker its name selects."""
    return check_baseline(g, condition.name, condition.r, condition.gamma)
