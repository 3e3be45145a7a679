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

Every mechanism reads the dominant direction off `graphs.dominant_rows`,
the one place the tie rule is decided.

`blowup_iterate` is the one expansion entry point: a seed packing, then
rounds of exchanges-to-fixpoint and upgrades with a coverage trace, each
round after the first on the host blown up by r, the mixed packing
converted back to a pure T_r-packing, which never lowers the covered
proportion.  It reports the coverage it reaches, and does not test it
against the paper's asymptotic gain, whose hypotheses do not bind at
desk-scale orders.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .constructions import blowup_tournament_packing, transitive_pattern
from .graphs import Digraph, bits, blow_up, dominant_rows, mask
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


class ConsistentCopy(NamedTuple):
    """An ordered T_{r'} copy split by a turning point.

    The first ``turning_point`` vertices have out-degree >= threshold, the
    rest in-degree >= threshold, and every forward arc is present.
    """

    vertices: tuple[int, ...]
    turning_point: int
    threshold: Fraction

    def verify(self, d: Digraph) -> bool:
        if not 0 <= self.turning_point <= len(self.vertices):
            return False
        later = 0  # the vertices after v
        for v in reversed(self.vertices):
            if d.out[v] & later != later:
                return False
            later |= 1 << v
        for idx, v in enumerate(self.vertices):
            row = d.out[v] if idx < self.turning_point else d.inn[v]
            if row.bit_count() < self.threshold:
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
    rows = dominant_rows(d)
    deg = [row.bit_count() for row in rows]

    def pick(mask: int) -> int | None:
        best = None
        for v in bits(mask):
            if deg[v] < threshold:
                continue
            if best is None or deg[v] > deg[best]:
                best = v
        return best

    start = pick(d.full_mask())
    if start is None:
        return None
    order = [start]
    # a vertex whose dominant row is its out-row joins the out-run
    s = 1 if rows[start] == d.out[start] else 0
    while len(order) < r:
        common = d.full_mask()
        for idx, v in enumerate(order, start=1):
            common &= d.out[v] if idx <= s else d.inn[v]
        nxt = pick(common)
        if nxt is None:
            return None
        order.insert(s, nxt)
        if rows[nxt] == d.out[nxt]:
            s += 1
    copy = ConsistentCopy(tuple(order), s, threshold)
    assert copy.verify(d), "greedy construction produced an invalid copy"
    return copy


class IndexBijection(NamedTuple):
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
    deg = [row.bit_count() for row in dominant_rows(d)]
    order = sorted(range(d.n), key=lambda v: (deg[v], v))
    rank = [0] * d.n
    for i, v in enumerate(order, start=1):
        rank[v] = i
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
    swapped = _swap_step(d, r, m, I, dominant_rows(d), [mask(p) for p in m.parts])
    if swapped is not None:
        check = verify_parts(d, swapped)
        assert check.ok, check.reason
    return swapped


def _swap_step(
    d: Digraph, r: int, m: Packing, I: IndexBijection, rows: list[int], pmasks: list[int]
) -> Packing | None:
    """`swap_improve` on a packing already checked, without its checks;
    ``rows`` are the host's `dominant_rows` and ``pmasks`` the vertex masks
    of ``m``'s parts, of which the swapped part's is updated in place.

    An uncovered x is tried only when its dominant row holds at least r-1
    vertices: with fewer it dominates the rest of no copy.  Only the
    swapped part is checked: it spans its pattern and its incoming vertex
    was uncovered, so a valid packing stays valid.
    """
    covered = m.covered_mask()
    rank = I.rank
    for x in I.order:
        xmask = rows[x]
        if covered >> x & 1 or xmask.bit_count() < r - 1:
            continue
        for pi, part in enumerate(m.parts):
            for y in part:
                if rank[y] <= rank[x]:
                    continue
                rest_mask = pmasks[pi] ^ 1 << y
                if xmask & rest_mask != rest_mask:
                    continue
                new_part = tuple(sorted([u for u in part if u != y] + [x]))
                parts = list(m.parts)
                parts[pi] = new_part
                pmasks[pi] = rest_mask | 1 << x
                assert not covered >> x & 1
                assert spans_pattern(d, new_part, m.patterns[pi]) is not None, new_part
                return Packing(m.n, tuple(parts), m.patterns)
    return None


def swap_to_fixpoint(d: Digraph, r: int, m: Packing) -> tuple[Packing, int]:
    """Iterate swap_improve until no move remains; returns (packing, steps).

    The input packing is checked in full once, as swap_improve checks it;
    each step checks only the part it swaps, which keeps the packing valid,
    and a packing that any step changed is verified in full once more before
    it is returned.  The part masks are built once and each step updates
    only the mask of the part it swaps.  Terminates because each move
    strictly increases a bounded integer sum under `index_bijection`.
    """
    I = index_bijection(d)
    rows = dominant_rows(d)
    _require_tournament_packing(d, m, r)
    pmasks = [mask(p) for p in m.parts]
    steps = 0
    while True:
        nxt = _swap_step(d, r, m, I, rows, pmasks)
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
    dominates or is fully dominated by.  Repeats until no upgrade applies;
    None if no upgrade ever applied.
    """
    gamma = as_fraction(gamma)
    rows = dominant_rows(d)
    r1_pat = transitive_pattern(r + 1)
    parts = list(m.parts)
    patterns = list(m.patterns)
    pmasks = [mask(p) for p in m.parts]
    covered = m.covered_mask()
    upgrades = 0
    while True:  # an upgrade grows the covered set: rescan from vertex 0
        threshold = Fraction((r - 1) * covered.bit_count(), r) + gamma * d.n
        for x in bits(d.full_mask() & ~covered):
            if (rows[x] & covered).bit_count() < threshold:
                continue
            pi = next((pi for pi, pmask in enumerate(pmasks) if len(parts[pi]) == r
                       and (d.out[x] & pmask == pmask or d.inn[x] & pmask == pmask)), None)
            if pi is not None:
                break
        else:
            break
        parts[pi] = tuple(sorted(parts[pi] + (x,)))
        patterns[pi] = r1_pat
        covered |= 1 << x
        upgrades += 1
    if upgrades == 0:
        return None
    out = Packing(m.n, tuple(parts), tuple(patterns))
    check = verify_parts(d, out)
    assert check.ok, check.reason
    assert out.coverage() == m.coverage() + upgrades
    return out


class TraceRow(NamedTuple):
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


def convert_to_blowup_packing(
    d: Digraph, m: Packing, r: int
) -> tuple[Digraph, Packing]:
    """Blow the host up by r and turn a {T_r, T_{r+1}}-packing into a pure
    T_r-packing covering exactly r times as many vertices.

    Each part's clone blocks span the corresponding blown-up tournament,
    T_r(r) or T_{r+1}(r), which carries an explicit perfect T_r-packing;
    the two are built once per call, keyed by the order of the part.
    """
    blown = blow_up(d, r)
    abstract = {
        r: blowup_tournament_packing(r, r, "r")[1].parts,
        r + 1: blowup_tournament_packing(r, r, "r+1")[1].parts,
    }
    parts: list[list[int]] = []
    for part in m.parts:
        k = len(part)
        if k not in abstract:
            raise ValueError(f"part of order {k} cannot be converted")
        order = transitive_order(d, part)
        if order is None:
            raise ValueError(f"part {part} does not span a transitive tournament")
        for apart in abstract[k]:
            parts.append([order[a // r] * r + a % r for a in apart])
    packing = Packing.uniform(blown.n, parts, transitive_pattern(r))
    check = verify_parts(blown, packing)
    assert check.ok, check.reason
    assert packing.coverage() == m.coverage() * r
    return blown, packing


class BlowupResult(NamedTuple):
    """The last host and packing, with round 0's ``seed_optimal``: None for
    a greedy seed, and False when the budget cut its exact seed search
    short."""

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
    """Seed packing, then expansion rounds alternated with blow-ups, z
    blow-ups or until the packing is perfect.

    The seed is an exact maximum packing for small hosts ("auto" with
    n <= 15, or "max") and a greedy maximal packing otherwise.  Every round
    traces its starting packing, runs exchanges to a fixpoint, then
    upgrades; each round after the first starts from the last packing
    converted onto the host blown up by r.  The covered proportion never
    decreases: expansion phases only add coverage and the blow-up
    conversion preserves the proportion exactly.
    """
    if z < 0:
        raise ValueError("z >= 0 required")
    gamma = as_fraction(gamma)
    seed_optimal: bool | None = None
    if seed_policy == "max" or (seed_policy == "auto" and d.n <= 15):
        res = max_packing(d, transitive_pattern(r), budget)
        m, seed_optimal, phase = res.packing, res.optimal, "seed:max"
    elif seed_policy in ("auto", "greedy"):
        m, phase = greedy_packing(d, transitive_pattern(r)), "seed:greedy"
    else:
        raise ValueError(f"unknown seed policy {seed_policy!r}")
    host = d
    proportions: list[Fraction] = []
    trace: list[TraceRow] = []
    for rnd in range(z + 1):
        trace.append(TraceRow(rnd, phase, m.coverage(), host.n))
        m, steps = swap_to_fixpoint(host, r, m)
        trace.append(TraceRow(rnd, f"swap[{steps}]", m.coverage(), host.n))
        extended = extend_mixed(host, r, m, gamma)
        if extended is not None:
            m = extended
        trace.append(TraceRow(rnd, "extend", m.coverage(), host.n))
        proportions.append(Fraction(m.coverage(), host.n))
        if rnd == z or m.coverage() == host.n:
            break
        host, m = convert_to_blowup_packing(host, m, r)
        trace.append(TraceRow(rnd + 1, "blowup", m.coverage(), host.n))
        phase = "seed:given"
    return BlowupResult(host, m, proportions, trace, seed_optimal)
