"""The benchmark's own checks, written apart from tilinglab.

Every check works on raw data: a host is its vertex count and its set of
edges or arcs, a pattern is its own edge list, and a packing is a list of
vertex tuples.  No check calls into tilinglab, so a fault in the program's
verifier cannot hide a fault in its solvers.  A failed check raises
``CheckFailed``.

Run ``python3 perfbench/checks.py`` to run the self-test alone; every
benchmark run also runs it before measuring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program is wrong."""


# -- patterns as raw edge lists ------------------------------------------------


def clique_edges(r: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(r), 2))


def transitive_arcs(r: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(r), 2))


def multipartite_edges(*sizes: int) -> list[tuple[int, int]]:
    cls = [c for c, t in enumerate(sizes) for _ in range(t)]
    return [(a, b) for a, b in itertools.combinations(range(len(cls)), 2) if cls[a] != cls[b]]


class Host:
    """A host as raw data: n and a set of ordered pairs (both orientations
    for an undirected edge)."""

    def __init__(self, n: int, pairs, directed: bool):
        self.n = n
        self.directed = directed
        self.pairs: set[tuple[int, int]] = set()
        self.near: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            self.pairs.add((u, v))
            if not directed:
                self.pairs.add((v, u))
            self.near[u].add(v)
            self.near[v].add(u)


def spans(host: Host, verts, pattern: list[tuple[int, int]]) -> bool:
    """Does host[verts] contain the pattern as a subgraph?  Brute force over
    every bijection, so only for patterns of a few vertices."""
    verts = list(verts)
    for image in itertools.permutations(verts):
        if all((image[a], image[b]) in host.pairs for a, b in pattern):
            return True
    return False


def pattern_order(pattern: list[tuple[int, int]]) -> int:
    return 1 + max(max(e) for e in pattern)


# -- packings ------------------------------------------------------------------


def check_packing(host: Host, parts, pattern, perfect: bool) -> int:
    """Parts are disjoint, in range and span the pattern; with ``perfect``
    they also cover every vertex.  Returns the number of covered vertices."""
    h = pattern_order(pattern)
    seen: set[int] = set()
    for part in parts:
        if len(part) != h:
            raise CheckFailed(f"part {tuple(part)} has {len(part)} vertices, pattern has {h}")
        for v in part:
            if not 0 <= v < host.n:
                raise CheckFailed(f"vertex {v} out of range")
            if v in seen:
                raise CheckFailed(f"vertex {v} lies in two parts")
            seen.add(v)
        if not spans(host, part, pattern):
            raise CheckFailed(f"part {tuple(part)} does not span the pattern")
    if perfect and len(seen) != host.n:
        missing = sorted(set(range(host.n)) - seen)
        raise CheckFailed(f"vertices {missing[:10]} uncovered")
    return len(seen)


def check_max_coverage(host: Host, parts, pattern, bound: int) -> None:
    """A maximum packing must be a valid packing that reaches the bound."""
    covered = check_packing(host, parts, pattern, perfect=False)
    if covered != bound:
        raise CheckFailed(f"coverage {covered} != bound {bound}")


def has_perfect_packing(host: Host, pattern) -> bool:
    """Exhaustive search, branching on the lowest uncovered vertex; for the
    small experiment hosts only."""
    h = pattern_order(pattern)
    if host.n % h:
        return False
    near = host.near

    def rec(free: frozenset[int]) -> bool:
        if not free:
            return True
        v = min(free)
        cand = sorted(near[v] & free)
        for rest in itertools.combinations(cand, h - 1):
            part = (v,) + rest
            if spans(host, part, pattern) and rec(free - set(part)):
                return True
        return False

    return rec(frozenset(range(host.n)))


# -- structural expectations ---------------------------------------------------


def multipartite_classes(host: Host) -> list[int] | None:
    """Class sizes if the host is complete multipartite, else None.

    The classes are the components of the non-adjacency relation; the host
    is complete multipartite when each is independent and every pair from
    different classes is adjacent.
    """
    n = host.n
    comp = [-1] * n
    sizes = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = len(sizes)
        todo = [s]
        size = 0
        while todo:
            u = todo.pop()
            size += 1
            for w in range(n):
                if w != u and comp[w] < 0 and (u, w) not in host.pairs:
                    comp[w] = comp[s]
                    todo.append(w)
        sizes.append(size)
    for u in range(n):
        for w in range(u + 1, n):
            if ((u, w) in host.pairs) != (comp[u] != comp[w]):
                return None
    return sizes


def no_perfect_clique_packing(host: Host, r: int) -> bool:
    """True when a complete r-partite host has unequal classes: each K_r
    there is a transversal, so a perfect packing needs equal classes."""
    sizes = multipartite_classes(host)
    if sizes is None or len(sizes) != r:
        raise CheckFailed("host is not complete r-partite")
    return len(set(sizes)) > 1


def star_forest_neighbourhood(host: Host, v: int) -> bool:
    """Does the neighbourhood of v induce a star forest?  A star forest has
    no 4-cycle, while every vertex of K2,2,2 has a 4-cycle (K2,2) as its
    neighbourhood, so such a v lies in no copy of K2,2,2."""
    nb = host.near[v]
    inner = {u: host.near[u] & nb for u in nb}
    seen: set[int] = set()
    for s in nb:
        if s in seen:
            continue
        comp = {s}
        todo = [s]
        while todo:
            u = todo.pop()
            for w in inner[u] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        edges = sum(len(inner[u]) for u in comp) // 2
        if edges != len(comp) - 1:
            return False  # a cycle
        if sum(1 for u in comp if len(inner[u]) > 1) > 1:
            return False  # a tree with two branch vertices is no star
    return True


def meets_margin(host: Host, r: int, gamma: Fraction) -> bool:
    """d_i >= (r-2)n/r + i + gamma*n for 1 <= i < n/r, with d the ascending
    degree sequence (dominant degree max(out, in) for a digraph)."""
    n = host.n
    out = [0] * n
    inn = [0] * n
    for a, b in host.pairs:
        out[a] += 1
        inn[b] += 1
    seq = sorted(max(o, i) for o, i in zip(out, inn))
    i = 1
    while Fraction(i) < Fraction(n, r):
        if Fraction(seq[i - 1]) < Fraction((r - 2) * n, r) + i + gamma * n:
            return False
        i += 1
    return True


# -- experiment CSVs ------------------------------------------------------------


def check_experiment_csv(text: str, trials: int, n: int) -> list[dict]:
    """Rows are complete and in order, and the summary agrees with them.
    Returns the rows."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "trial,n,m,attempts,conditions,verdict,nodes,violation":
        raise CheckFailed("bad CSV header")
    rows = []
    for k, line in enumerate(lines[1:-1]):
        f = line.split(",")
        if len(f) != 8:
            raise CheckFailed(f"row {k}: {len(f)} fields")
        try:
            row = {"trial": int(f[0]), "n": int(f[1]), "m": int(f[2]), "attempts": int(f[3]),
                   "conditions": f[4], "verdict": f[5], "nodes": int(f[6]), "violation": f[7]}
        except ValueError as exc:
            raise CheckFailed(f"row {k}: {exc}") from exc
        if row["trial"] != k or row["n"] != n:
            raise CheckFailed(f"row {k}: trial {row['trial']}, n {row['n']}")
        if row["conditions"] != "satisfied" or row["attempts"] < 1 or row["nodes"] < 1:
            raise CheckFailed(f"row {k}: {line}")
        if row["verdict"] not in ("found", "none"):
            raise CheckFailed(f"row {k}: verdict {row['verdict']}")
        if (row["verdict"] == "none") != bool(row["violation"]):
            raise CheckFailed(f"row {k}: violation field does not match verdict")
        rows.append(row)
    if len(rows) != trials:
        raise CheckFailed(f"{len(rows)} rows for {trials} trials")
    attempts = sum(r["attempts"] for r in rows)
    found = sum(r["verdict"] == "found" for r in rows)
    expected = (
        f"summary,trials={trials},found={found},none={trials - found},"
        f"exhausted=0,attempts={attempts},accept-rate={trials / attempts:.4f},"
    )
    if lines[-1] != expected:
        raise CheckFailed(f"summary {lines[-1]!r} disagrees with rows ({expected!r})")
    return rows


def violation_host(row: dict, directed: bool) -> Host:
    pairs = [tuple(int(x) for x in e.split("-")) for e in row["violation"].split(";")]
    return Host(row["n"], pairs, directed)


# -- self-test -----------------------------------------------------------------


def _require(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(f"self-test: {label}")


def _expect_rejected(label: str, fn) -> None:
    try:
        fn()
    except CheckFailed:
        return
    raise AssertionError(f"self-test: corrupted output accepted: {label}")


def self_test() -> None:
    """Each check accepts a correct output and rejects a corrupted one."""
    k3 = clique_edges(3)
    k6 = Host(6, clique_edges(6), directed=False)
    good = [(0, 1, 2), (3, 4, 5)]
    check_packing(k6, good, k3, perfect=True)
    _expect_rejected("two parts sharing a vertex",
                     lambda: check_packing(k6, [(0, 1, 2), (2, 3, 4)], k3, perfect=False))
    missing_edge = Host(6, [e for e in clique_edges(6) if e != (0, 1)], directed=False)
    _expect_rejected("a part missing one edge",
                     lambda: check_packing(missing_edge, good, k3, perfect=True))
    t3 = transitive_arcs(3)
    cyclic = Host(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    _expect_rejected("a part missing one arc", lambda: check_packing(cyclic, [(0, 1, 2)], t3, True))
    _expect_rejected("an uncovered vertex",
                     lambda: check_packing(k6, [(0, 1, 2)], k3, perfect=True))
    check_max_coverage(k6, good, k3, 6)
    _expect_rejected("a wrong coverage bound",
                     lambda: check_max_coverage(k6, [(0, 1, 2)], k3, 6))

    rows = ["trial,n,m,attempts,conditions,verdict,nodes,violation",
            "0,6,15,2,satisfied,found,3,", "1,6,15,1,satisfied,found,3,"]
    csv = "\n".join(rows + ["summary,trials=2,found=2,none=0,exhausted=0,attempts=3,"
                            "accept-rate=0.6667,"]) + "\n"
    check_experiment_csv(csv, 2, 6)
    _expect_rejected("an experiment CSV whose summary disagrees with its rows",
                     lambda: check_experiment_csv(csv.replace("found=2,none=0", "found=1,none=1"), 2, 6))
    _expect_rejected("an experiment CSV whose summary disagrees with its rows",
                     lambda: check_experiment_csv(csv.replace("attempts=3", "attempts=4"), 2, 6))

    # the structural expectations and the independent search
    tight = Host(6, [(u, v) for u in range(6) for v in range(6)
                     if u < v and (u < 3) != (v < 3)], directed=False)
    _require(not has_perfect_packing(tight, k3), "K3,3 has no K3-packing")
    _require(has_perfect_packing(k6, k3), "K6 has a K3-packing")
    tripartite = Host(6, multipartite_edges(3, 2, 1), directed=False)
    _require(multipartite_classes(tripartite) == [3, 2, 1], "classes of K3,2,1")
    _require(no_perfect_clique_packing(tripartite, 3), "K3,2,1 has unequal classes")
    _require(not no_perfect_clique_packing(Host(6, multipartite_edges(2, 2, 2), False), 3),
             "K2,2,2 has equal classes")
    star = Host(5, [(0, 1), (0, 2), (1, 3), (2, 4)], directed=False)
    _require(star_forest_neighbourhood(star, 0), "N(0) = {1, 2} is a star forest")
    _require(not star_forest_neighbourhood(Host(7, multipartite_edges(1, 2, 2, 2), False), 0),
             "N(0) = K2,2,2 is not a star forest")
    _require(meets_margin(k6, 3, Fraction(0)) and not meets_margin(tight, 3, Fraction(1, 2)),
             "margin condition on K6 and K3,3")

if __name__ == "__main__":
    self_test()
    print("checker self-test: ok")
