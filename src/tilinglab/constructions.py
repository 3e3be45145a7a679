"""Generators for every explicit graph and digraph the package studies.

Covers the standard patterns (transitive tournaments, cliques, complete
multipartite graphs and their blow-up powers), the sharpness construction
for the degree-sequence tiling condition (a layered graph whose single
special vertex provably lies in no pattern copy), the tight example for the
minimum-degree clique-factor threshold, and the explicit perfect
tournament packings of blown-up tournaments.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .graphs import Digraph, Graph, PatternGraph, blow_up
from .packing import Packing, enumerate_copies, is_perfect_packing


def transitive_tournament(r: int) -> Digraph:
    """T_r: arcs i -> j for all i < j; vertex 0 is the source."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return Digraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


def complete_graph(r: int) -> Graph:
    if r < 1:
        raise ValueError("r must be >= 1")
    return Graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


def complete_multipartite(*sizes: int) -> Graph:
    """K_{t_1,...,t_r}: classes are consecutive blocks, edges across classes."""
    if not sizes or any(t < 1 for t in sizes):
        raise ValueError("class sizes must be positive")
    bounds = []
    start = 0
    for t in sizes:
        bounds.append(range(start, start + t))
        start += t
    edges = [
        (u, v)
        for a in range(len(sizes))
        for b in range(a + 1, len(sizes))
        for u in bounds[a]
        for v in bounds[b]
    ]
    return Graph(start, edges)


def pattern_power(kind: str, r: int, t: int) -> Graph | Digraph:
    """K_r^t or T_r^t: the t-fold blow-up of K_r or T_r."""
    if r < 1 or t < 1:
        raise ValueError("r and t must be >= 1")
    if kind == "K":
        return blow_up(complete_graph(r), t)
    if kind == "T":
        return blow_up(transitive_tournament(r), t)
    raise ValueError(f"kind must be 'K' or 'T', got {kind!r}")


# -- pattern construction and descriptor parsing -----------------------------


def clique_pattern(r: int) -> PatternGraph:
    return PatternGraph(complete_graph(r), name=f"K{r}")


def transitive_pattern(r: int) -> PatternGraph:
    return PatternGraph(transitive_tournament(r), name=f"T{r}")


def multipartite_pattern(*sizes: int) -> PatternGraph:
    return PatternGraph(complete_multipartite(*sizes))


_POWER_RE = re.compile(r"^([KT])(\d+)\^(\d+)$")
_SIMPLE_RE = re.compile(r"^([KT])(\d+)$")
_MULTI_RE = re.compile(r"^K(\d+(?:,\d+)+)$")


def pattern_from_name(name: str) -> PatternGraph:
    """Parse a pattern descriptor: K3, T3, K2,2,2, K3^2, T3^2."""
    text = name.strip()
    m = _POWER_RE.match(text)
    if m:
        kind, r, t = m.group(1), int(m.group(2)), int(m.group(3))
        base = pattern_power(kind, r, t)
        return PatternGraph(base, name=f"{kind}{r}^{t}")
    m = _SIMPLE_RE.match(text)
    if m:
        kind, r = m.group(1), int(m.group(2))
        if kind == "K":
            return clique_pattern(r)
        return transitive_pattern(r)
    m = _MULTI_RE.match(text)
    if m:
        sizes = tuple(int(s) for s in m.group(1).split(","))
        return PatternGraph(complete_multipartite(*sizes), name=text)
    raise ValueError(f"cannot parse pattern descriptor {name!r}")


# -- the degree-sequence sharpness construction ------------------------------


class ExtremalParamError(ValueError):
    """A parameter set violating one of the structural identities."""


class ExtremalParams(NamedTuple):
    """Parameters for the layered no-packing construction.

    The graph has classes V_1..V_r with |V_1| = 1, |V_2| = n/r + 1 + C*r,
    |V_3| = 2n/r - 2 - 3C and |V_i| = n/r - C for i >= 4; edges: V_3 is a
    clique joined to everything outside V_1, each of V_2 and V_i (i >= 4)
    is joined to its complement, and inside V_2 sits a spanning star
    forest.  ``star_sizes`` are vertex counts of the stars, summing to
    |V_2|.
    """

    r: int
    part_sizes: tuple[int, ...]  # class sizes of the pattern K_{t_1..t_r}
    n: int
    C: int
    star_sizes: tuple[int, ...] = ()

    def class_sizes(self) -> list[int]:
        base = self.n // self.r
        sizes = [1, base + 1 + self.C * self.r, 2 * base - 2 - 3 * self.C]
        sizes.extend([base - self.C] * (self.r - 3))
        return sizes

    def validate(self) -> None:
        if self.r < 3:
            raise ExtremalParamError("r >= 3 required")
        if len(self.part_sizes) != self.r or any(t < 2 for t in self.part_sizes):
            raise ExtremalParamError(
                "pattern needs r classes, each of size >= 2"
            )
        if self.C < 0:
            raise ExtremalParamError("C >= 0 required")
        if self.n % self.r != 0:
            raise ExtremalParamError(f"identity violated: r={self.r} must divide n={self.n}")
        sizes = self.class_sizes()
        names = ["|V_1|=1", "|V_2|=n/r+1+Cr", "|V_3|=2n/r-2-3C"] + [
            f"|V_{i}|=n/r-C" for i in range(4, self.r + 1)
        ]
        for size, label in zip(sizes, names):
            if size < 0:
                raise ExtremalParamError(f"identity violated: {label} = {size} < 0")
        if sum(sizes) != self.n:
            raise ExtremalParamError(
                f"identity violated: class sizes sum to {sum(sizes)} != n={self.n}"
            )
        stars = self.star_sizes or preset_star_sizes(self.n, sizes[1])
        if any(s < 1 for s in stars):
            raise ExtremalParamError("star sizes must be positive")
        if sum(stars) != sizes[1]:
            raise ExtremalParamError(
                f"identity violated: star sizes sum to {sum(stars)} != |V_2|={sizes[1]}"
            )


def preset_star_sizes(n: int, v2_size: int) -> tuple[int, ...]:
    """Preset star sizes: floor(sqrt(n)/2) stars whose sizes differ by at
    most one and sum to |V_2|.  Requires n to be a perfect square.

    For even sqrt(n) these are the source construction's sqrt(n)/2 stars;
    the floor for odd sqrt(n) is a local choice, not taken from the source.
    Any star forest on V_2 keeps v uncoverable.
    """
    s = math.isqrt(n)
    if s * s != n:
        raise ExtremalParamError(
            "preset star sizes need square n; pass star_sizes explicitly"
        )
    count = s // 2
    if count < 1:
        raise ExtremalParamError("n too small for the preset star count")
    low = v2_size // count
    high_count = v2_size - count * low
    if low < 1:
        raise ExtremalParamError(
            "preset star sizes do not cover V_2; pass star_sizes explicitly"
        )
    return tuple([low + 1] * high_count + [low] * (count - high_count))


class ExtremalInstance(NamedTuple):
    graph: Graph
    v: int  # the distinguished vertex (always 0)
    classes: tuple[tuple[int, ...], ...]
    stars: tuple[tuple[int, ...], ...]  # each star lists center first
    params: ExtremalParams


def extremal_instance(params: ExtremalParams) -> ExtremalInstance:
    """Build the no-packing construction; the distinguished vertex is 0.

    Every class is joined to its complement, except that V_1 and V_3 are
    not joined; V_3 is a clique, and a star forest lies inside V_2.  The
    rows are built from the class masks.
    """
    params.validate()
    sizes = params.class_sizes()
    full = (1 << params.n) - 1
    classes = []
    masks = []
    start = 0
    for size in sizes:
        classes.append(tuple(range(start, start + size)))
        masks.append(((1 << size) - 1) << start)
        start += size
    adj = [full & ~m for m, size in zip(masks, sizes) for _ in range(size)]
    for u in classes[0]:
        adj[u] &= ~masks[2]
    for u in classes[2]:
        adj[u] = adj[u] & ~masks[0] | masks[2] & ~(1 << u)
    # the star forest inside V_2, one consecutive chunk per star
    star_sizes = params.star_sizes or preset_star_sizes(params.n, sizes[1])
    stars = []
    pos = 0
    for size in star_sizes:
        chunk = classes[1][pos : pos + size]
        pos += size
        for leaf in chunk[1:]:
            adj[chunk[0]] |= 1 << leaf
            adj[leaf] |= 1 << chunk[0]
        stars.append(chunk)
    return ExtremalInstance(
        Graph._from_rows(params.n, adj), 0, tuple(classes), tuple(stars), params
    )


class UncoverableResult(NamedTuple):
    """Outcome of the exhaustive search for a pattern copy through a vertex.

    ``uncoverable`` means the search exhausted with no copy; when the host
    order is divisible by the pattern order this certifies that no perfect
    packing exists.  Otherwise ``refutation`` is an explicit spanning set.
    """

    vertex: int
    pattern: str
    uncoverable: bool
    refutation: tuple[int, ...] | None


def certify_uncoverable(
    g: Graph | Digraph, v: int, pattern: PatternGraph
) -> UncoverableResult:
    """Exhaustively search for any vertex set through v spanning the pattern."""
    for verts in enumerate_copies(g, pattern, through=v):
        return UncoverableResult(v, pattern.name, False, verts)
    return UncoverableResult(v, pattern.name, True, None)


# -- explicit perfect tournament packings of blow-ups -------------------------


def blowup_tournament_packing(
    r: int, t: int, which: str = "r"
) -> tuple[Digraph, Packing]:
    """Perfect T_r-packing of T_r(t) (which="r") or T_{r+1}(t) (which="r+1").

    Needs r | t.  T_r(t) is covered by t transversals (slot j from every
    block).  T_{r+1}(t) is covered by cycling which block is omitted: for
    each of the r+1 blocks, t/r copies transversal to the other r blocks;
    every block is then used in exactly r rounds of t/r vertices each.
    Always verified before returning.
    """
    if r < 1 or t < 1:
        raise ValueError("r and t must be >= 1")
    if t % r != 0:
        raise ValueError(f"divisibility violated: r={r} must divide t={t}")
    if which not in ("r", "r+1"):
        raise ValueError("which must be 'r' or 'r+1'")
    k = r if which == "r" else r + 1
    host = blow_up(transitive_tournament(k), t)
    parts: list[list[int]] = []
    if which == "r":
        for j in range(t):
            parts.append([i * t + j for i in range(r)])
    else:
        counter = [0] * k
        for omit in range(k):
            for _ in range(t // r):
                part = []
                for b in range(k):
                    if b == omit:
                        continue
                    part.append(b * t + counter[b])
                    counter[b] += 1
                parts.append(part)
    packing = Packing.uniform(host.n, parts, transitive_pattern(r))
    check = is_perfect_packing(host, packing)
    if not check.ok:
        raise AssertionError(f"construction failed verification: {check.reason}")
    return host, packing


def hs_tight_instance(r: int, n: int) -> Graph:
    """Complete r-partite graph with classes n/r+1, n/r, ..., n/r, n/r-1.

    Minimum degree (1-1/r)n - 1, one short of the clique-factor threshold,
    and no perfect K_r-packing: every r-clique is a transversal, so a
    perfect packing would need all classes equal.
    """
    if r < 2:
        raise ValueError("r >= 2 required")
    if n % r != 0:
        raise ValueError("r must divide n")
    base = n // r
    if base < 2:
        raise ValueError("n/r >= 2 required")
    sizes = [base + 1] + [base] * (r - 2) + [base - 1]
    return complete_multipartite(*sizes)
