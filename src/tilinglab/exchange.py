"""Constructive packing-growth engines for transitive tournaments.

Three mechanisms, each verified against the packing module before anything
is returned:

* greedy construction of a single T_r through "consistent" copies: vertices
  of large out-degree first, then vertices of large in-degree, a new vertex
  always inserted at the turning point between the two runs;
* an exchange step on a T_r-packing that swaps an uncovered vertex into a
  copy in place of a covered vertex of strictly larger sorted-degree rank,
  preserving coverage while pushing the uncovered set toward high dominant
  degrees;
* an upgrade step that turns a T_r copy into T_{r+1} by attaching an
  uncovered vertex that dominates (or is dominated by) the whole copy.

`expand_coverage` chains seed -> exchanges-to-fixpoint -> upgrades and
reports a coverage trace; `blowup_iterate` alternates that loop with
blowing the host up by r and converting the mixed packing back to a pure
T_r-packing, which never lowers the covered proportion.  Both report the
coverage they reach; neither tests it against the paper's asymptotic gain,
whose hypotheses do not bind at desk-scale orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import blowup_tournament_packing, transitive_pattern
from .graphs import Digraph, bits, blow_up, dominant_degree_sequence, dominant_view
from .packing import (
    Packing,
    SearchBudget,
    greedy_packing,
    max_packing,
    spans_pattern,
    transitive_order,
    verify_parts,
)
from .util import as_fraction


@dataclass(frozen=True)
class ConsistentCopy:
    """An ordered T_{r'} copy split by a turning point.

    The first ``turning_point`` vertices have out-degree >= threshold, the
    rest in-degree >= threshold, and every forward arc is present.
    """

    vertices: tuple[int, ...]
    turning_point: int
    threshold: Fraction

    def verify(self, d: Digraph) -> bool:
        k = len(self.vertices)
        if not 0 <= self.turning_point <= k:
            return False
        for a in range(k):
            for b in range(a + 1, k):
                if not d.has_arc(self.vertices[a], self.vertices[b]):
                    return False
        for idx, v in enumerate(self.vertices, start=1):
            if idx <= self.turning_point:
                if Fraction(d.out_degree(v)) < self.threshold:
                    return False
            elif Fraction(d.in_degree(v)) < self.threshold:
                return False
        return True


def greedy_transitive(
    d: Digraph, r: int, threshold: Fraction | None = None
) -> ConsistentCopy | None:
    """Grow a consistent T_r, inserting each new vertex at the turning point.

    With the default threshold (1-1/r)n this never fails when the n/r-th
    smallest dominant degree reaches the threshold: the common neighbourhood
    of a consistent T_{r'} keeps at least n/r vertices, which is more than
    the number of low-dominant-degree vertices the hypothesis permits.
    Candidates are chosen by maximum dominant degree, ties to the smaller
    vertex id.
    """
    if r < 1:
        raise ValueError("r >= 1 required")
    n = d.n
    if threshold is None:
        threshold = Fraction((r - 1) * n, r)
    _, views = dominant_degree_sequence(d)

    def pick(mask: int) -> int | None:
        best = None
        for v in bits(mask):
            if Fraction(views[v].dominant) < threshold:
                continue
            if best is None or views[v].dominant > views[best].dominant:
                best = v
        return best

    start = pick(d.full_mask())
    if start is None:
        return None
    order = [start]
    s = 1 if views[start].orientation == "OUT" else 0
    while len(order) < r:
        common = d.full_mask()
        for idx, v in enumerate(order, start=1):
            common &= d.out[v] if idx <= s else d.inn[v]
        nxt = pick(common)
        if nxt is None:
            return None
        order.insert(s, nxt)
        if views[nxt].orientation == "OUT":
            s += 1
    copy = ConsistentCopy(tuple(order), s, threshold)
    assert copy.verify(d), "greedy construction produced an invalid copy"
    return copy


@dataclass(frozen=True)
class IndexBijection:
    """Vertex order realising the sorted dominant degree sequence.

    rank[x] = i means the dominant degree of x equals the i-th smallest
    (1-based); ties are broken by ascending vertex id, so the bijection is
    deterministic and a regular digraph gets the identity.
    """

    order: tuple[int, ...]
    rank: tuple[int, ...]  # indexed by vertex, values 1..n

    def __getitem__(self, v: int) -> int:
        return self.rank[v]

    def uncovered_weight(self, covered_mask: int, n: int) -> int:
        return sum(self.rank[v] for v in range(n) if not covered_mask >> v & 1)


def index_bijection(d: Digraph) -> IndexBijection:
    seq, views = dominant_degree_sequence(d)
    order = sorted(range(d.n), key=lambda v: (views[v].dominant, v))
    rank = [0] * d.n
    for i, v in enumerate(order, start=1):
        rank[v] = i
        assert views[v].dominant == seq[i - 1]
    return IndexBijection(tuple(order), tuple(rank))


def _require_tournament_packing(d: Digraph, m: Packing, r: int) -> None:
    if any(len(part) != r for part in m.parts):
        raise ValueError("packing has a part of the wrong order")
    check = verify_parts(d, m)
    if not check.ok:
        raise ValueError(f"packing fails verification: {check.reason}")


def swap_improve(
    d: Digraph, r: int, m: Packing, I: IndexBijection
) -> Packing | None:
    """One coverage-preserving exchange that strictly increases the sum of
    ranks over uncovered vertices, or None when no such exchange exists.

    An uncovered x may replace a covered y of strictly larger rank when,
    in x's dominant direction, x dominates (is dominated by) the rest of
    y's copy; the rest spans T_{r-1}, so the swapped set spans T_r with x
    at an end.
    """
    _require_tournament_packing(d, m, r)
    swapped = _swap_step(d, m, I)
    if swapped is not None:
        check = verify_parts(d, swapped)
        assert check.ok, check.reason
    return swapped


def _swap_step(d: Digraph, m: Packing, I: IndexBijection) -> Packing | None:
    """`swap_improve` on a packing already checked, without its checks.

    Only the swapped part is checked: it spans its pattern and its incoming
    vertex was uncovered, so a valid packing stays valid.
    """
    covered = m.covered_mask()
    uncovered = sorted(
        (v for v in range(d.n) if not covered >> v & 1), key=lambda v: I[v]
    )
    for x in uncovered:
        xmask = dominant_view(d, x).dominant_mask(d)
        for pi, part in enumerate(m.parts):
            for y in part:
                if I[y] <= I[x]:
                    continue
                rest_mask = 0
                for u in part:
                    if u != y:
                        rest_mask |= 1 << u
                if xmask & rest_mask != rest_mask:
                    continue
                new_part = tuple(sorted([u for u in part if u != y] + [x]))
                parts = list(m.parts)
                parts[pi] = new_part
                assert not covered >> x & 1
                assert spans_pattern(d, new_part, m.patterns[pi]) is not None, new_part
                return Packing(m.n, tuple(parts), m.patterns)
    return None


def swap_to_fixpoint(d: Digraph, r: int, m: Packing) -> tuple[Packing, int]:
    """Iterate swap_improve until no move remains; returns (packing, steps).

    The input packing is checked in full once, as swap_improve checks it;
    each step checks only the part it swaps, which keeps the packing valid,
    and a packing that any step changed is verified in full once more before
    it is returned.  Terminates because each move strictly increases a
    bounded integer sum under `index_bijection`.
    """
    I = index_bijection(d)
    _require_tournament_packing(d, m, r)
    steps = 0
    while True:
        nxt = _swap_step(d, m, I)
        if nxt is None:
            if steps:
                check = verify_parts(d, m)
                assert check.ok, check.reason
            return m, steps
        assert nxt.coverage() == m.coverage()
        m = nxt
        steps += 1


def extend_mixed(d: Digraph, r: int, m: Packing, gamma) -> Packing | None:
    """Upgrade T_r copies to T_{r+1} with qualified uncovered vertices.

    A vertex qualifies when its dominant degree into the covered set reaches
    (r-1)|V(m)|/r + gamma*n.  It is attached to the first copy it fully
    dominates or is fully dominated by (dominant direction tried first).
    Repeats until no upgrade applies; None if no upgrade ever applied.
    """
    gamma = as_fraction(gamma)
    _, views = dominant_degree_sequence(d)
    r_pat = transitive_pattern(r)
    r1_pat = transitive_pattern(r + 1)
    parts = list(m.parts)
    patterns = list(m.patterns)
    upgrades = 0
    progress = True
    while progress:
        progress = False
        covered = 0
        for part in parts:
            for u in part:
                covered |= 1 << u
        cov_count = covered.bit_count()
        threshold = Fraction((r - 1) * cov_count, r) + gamma * d.n
        for x in range(d.n):
            if covered >> x & 1:
                continue
            view = views[x]
            if Fraction(view.dominant_degree_in(d, covered)) < threshold:
                continue
            masks = (
                (d.out[x], d.inn[x])
                if view.orientation == "OUT"
                else (d.inn[x], d.out[x])
            )
            done = False
            for pi, part in enumerate(parts):
                if len(part) != r:
                    continue  # already upgraded
                pmask = 0
                for u in part:
                    pmask |= 1 << u
                if masks[0] & pmask == pmask or masks[1] & pmask == pmask:
                    parts[pi] = tuple(sorted(part + (x,)))
                    patterns[pi] = r1_pat
                    upgrades += 1
                    progress = True
                    done = True
                    break
            if done:
                break
    if upgrades == 0:
        return None
    out = Packing(m.n, tuple(parts), tuple(patterns))
    check = verify_parts(d, out)
    assert check.ok, check.reason
    assert out.coverage() == m.coverage() + upgrades
    return out


@dataclass(frozen=True)
class TraceRow:
    round: int
    phase: str
    covered: int
    n: int


def trace_to_csv(rows: list[TraceRow]) -> str:
    lines = ["round,phase,covered,n,proportion"]
    for row in rows:
        lines.append(
            f"{row.round},{row.phase},{row.covered},{row.n},"
            f"{row.covered / row.n:.6f}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class ExpandResult:
    packing: Packing
    trace: list[TraceRow]
    seed_coverage: int
    final_coverage: int
    seed_optimal: bool | None


def _swap_and_extend(
    d: Digraph, r: int, gamma, m: Packing, rnd: int, phase: str, trace: list[TraceRow]
) -> Packing:
    """One expansion round from the seed ``m``: exchanges to a fixpoint,
    then upgrades.  Appends the seed row (labelled ``phase``) and one row
    per step to ``trace``, and returns the expanded packing."""
    trace.append(TraceRow(rnd, phase, m.coverage(), d.n))
    m, steps = swap_to_fixpoint(d, r, m)
    trace.append(TraceRow(rnd, f"swap[{steps}]", m.coverage(), d.n))
    extended = extend_mixed(d, r, m, gamma)
    if extended is not None:
        m = extended
    trace.append(TraceRow(rnd, "extend", m.coverage(), d.n))
    return m


def expand_coverage(
    d: Digraph,
    r: int,
    gamma,
    budget: SearchBudget | None = None,
    seed_policy: str = "auto",
) -> ExpandResult:
    """Seed packing -> exchange fixpoint -> upgrades, with coverage trace.

    The seed is an exact maximum packing for small hosts ("auto" with
    n <= 15, or "max") and a greedy maximal packing otherwise.
    ``seed_optimal`` is None for a greedy seed, and False when the budget
    cut the exact seed search short.  The trace is nondecreasing: no phase
    ever loses coverage.
    """
    gamma = as_fraction(gamma)
    seed_optimal: bool | None = None
    if seed_policy == "max" or (seed_policy == "auto" and d.n <= 15):
        res = max_packing(d, transitive_pattern(r), budget)
        m = res.packing
        seed_optimal = res.optimal
        phase = "seed:max"
    elif seed_policy in ("auto", "greedy"):
        m = greedy_packing(d, transitive_pattern(r))
        phase = "seed:greedy"
    else:
        raise ValueError(f"unknown seed policy {seed_policy!r}")
    seed_cov = m.coverage()
    trace: list[TraceRow] = []
    m = _swap_and_extend(d, r, gamma, m, 0, phase, trace)
    return ExpandResult(
        packing=m,
        trace=trace,
        seed_coverage=seed_cov,
        final_coverage=m.coverage(),
        seed_optimal=seed_optimal,
    )


def convert_to_blowup_packing(
    d: Digraph, m: Packing, r: int
) -> tuple[Digraph, Packing]:
    """Blow the host up by r and turn a {T_r, T_{r+1}}-packing into a pure
    T_r-packing covering exactly r times as many vertices.

    Each part's clone blocks span the corresponding blown-up tournament,
    which carries an explicit perfect T_r-packing.
    """
    blown = blow_up(d, r)
    pattern = transitive_pattern(r)
    parts: list[list[int]] = []
    for part in m.parts:
        k = len(part)
        if k not in (r, r + 1):
            raise ValueError(f"part of order {k} cannot be converted")
        order = transitive_order(d, part)
        if order is None:
            raise ValueError(f"part {part} does not span a transitive tournament")
        _, abstract = blowup_tournament_packing(r, r, "r" if k == r else "r+1")
        for apart in abstract.parts:
            mapped = []
            for a in apart:
                orig, slot = divmod(a, r)
                mapped.append(order[orig] * r + slot)
            parts.append(mapped)
    packing = Packing.uniform(blown.n, parts, pattern)
    check = verify_parts(blown, packing)
    assert check.ok, check.reason
    assert packing.coverage() == m.coverage() * r
    return blown, packing


@dataclass
class BlowupResult:
    """The last host and packing, with round 0's ``seed_optimal``: False
    when the budget cut its exact seed search short."""

    digraph: Digraph
    packing: Packing
    proportions: list[Fraction]
    trace: list[TraceRow]
    seed_optimal: bool | None


def blowup_iterate(
    d: Digraph,
    r: int,
    z: int,
    gamma,
    budget: SearchBudget | None = None,
    seed_policy: str = "auto",
) -> BlowupResult:
    """Alternate expansion rounds with blow-ups, z times or until the
    packing is perfect.

    The covered proportion never decreases: expansion phases only add
    coverage and the blow-up conversion preserves the proportion exactly.
    """
    if z < 0:
        raise ValueError("z >= 0 required")
    res = expand_coverage(d, r, gamma, budget=budget, seed_policy=seed_policy)
    host, m, trace = d, res.packing, res.trace
    proportions = [Fraction(m.coverage(), host.n)]
    for rnd in range(1, z + 1):
        if m.coverage() == host.n:
            break
        host, m = convert_to_blowup_packing(host, m, r)
        trace.append(TraceRow(rnd, "blowup", m.coverage(), host.n))
        m = _swap_and_extend(host, r, gamma, m, rnd, "seed:given", trace)
        proportions.append(Fraction(m.coverage(), host.n))
    return BlowupResult(host, m, proportions, trace, res.seed_optimal)
