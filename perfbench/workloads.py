"""The four workloads: their inputs, their operations and the checks on
each operation's output.

``build`` makes a workload's inputs from the seed with tilinglab's own
constructors and degree-condition checks; it is what ``setup_s`` times.
``operations`` then computes the benchmark's own expectations (with
``checks``, never with tilinglab) and returns the operations of one round.
Every round runs the same operations, so the share of failed operations
never depends on the seed or on how many rounds fit in a run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import checks

WORKLOADS = ("exact", "certify", "pipeline", "experiment")

# exact: NONE proofs near a second each, the one slow max_packing, and two
# hosts deeper than the recursion limit
HS_TIGHT = ((3, 18), (5, 20), (2, 18))
DEEP_CYCLE = 3000
DEEP_EDGELESS = 1500
# the sharpness instance of the paper for K2,2,2, at the desk order and at
# the order where its degree clause holds
EXT36 = (3, (2, 2, 2), 36, 1, ())
EXT144 = (3, (2, 2, 2), 144, 1, (6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 2))
# pipeline: hosts per pattern, their order and density, and the gadget cap
# (4h gadgets: with the default 2h, about one K3 host in eighty has a
# leftover vertex that no gadget absorbs)
PIPELINE_HOSTS = 20
PIPELINE_N = 96
PIPELINE_P = 0.7
PIPELINE_MAX_GADGETS = 12
# experiment: (sampler, n, gamma, p, pattern), each run for TRIALS trials
EXPERIMENT_SPECS = (
    ("gnp-min-degree", 24, "0", 0.8, "K3"),
    ("gnp-margin", 24, "1/20", 0.75, "K3"),
    ("gnp-dominant", 15, "0", 0.7, "T3"),
)
TRIALS = 300


class OperationRefused(Exception):
    """The program declined an operation that should succeed."""


class Op:
    """One operation: ``run()`` calls the program, ``check(output)`` raises
    ``checks.CheckFailed`` when the output is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def load(root: str) -> SimpleNamespace:
    """Import tilinglab from ``root/src`` and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tilinglab", "__init__.py")):
        raise ImportError(f"no tilinglab sources under {src}")
    sys.path.insert(0, src)
    import tilinglab
    from tilinglab import absorbing, cli, constructions, degseq, exchange, graphs, packing

    if os.path.dirname(os.path.abspath(tilinglab.__file__)) != os.path.join(src, "tilinglab"):
        raise ImportError(f"tilinglab imported from {tilinglab.__file__}, not {src}")
    return SimpleNamespace(absorbing=absorbing, cli=cli, constructions=constructions,
                           degseq=degseq, exchange=exchange, graphs=graphs, packing=packing)


# -- inputs ----------------------------------------------------------------------


def build(tl, workload: str, seed: int) -> SimpleNamespace:
    return {"exact": _build_exact, "certify": _build_certify,
            "pipeline": _build_pipeline, "experiment": _build_experiment}[workload](tl, seed)


def _extremal(tl, spec):
    c = tl.constructions
    r, parts, n, big_c, stars = spec
    return c.extremal_instance(c.ExtremalParams(r, parts, n, big_c, star_sizes=stars))


def _build_exact(tl, seed):
    # fixed constructions: a relabelling would change the NONE proofs'
    # node counts fourfold from seed to seed
    c = tl.constructions
    Graph = tl.graphs.Graph
    return SimpleNamespace(
        hs=[(r, c.hs_tight_instance(r, n), c.clique_pattern(r)) for r, n in HS_TIGHT],
        ext36=_extremal(tl, EXT36),
        k222=c.pattern_from_name("K2,2,2"),
        k2=c.clique_pattern(2),
        cycle=Graph(DEEP_CYCLE, [(i, (i + 1) % DEEP_CYCLE) for i in range(DEEP_CYCLE)]),
        edgeless=Graph(DEEP_EDGELESS),
    )


def _build_certify(tl, seed):
    ext144 = _extremal(tl, EXT144)
    # the control vertex is drawn from V_3, a clique joined to all but V_1
    r, _, n, big_c, _ = EXT144
    v3_start = 1 + n // r + 1 + big_c * r
    control = random.Random(f"certify:{seed}").randrange(v3_start, n)
    return SimpleNamespace(ext144=ext144, ext36=_extremal(tl, EXT36),
                           k222=tl.constructions.pattern_from_name("K2,2,2"),
                           control=control, v3=range(v3_start, n))


def _build_pipeline(tl, seed):
    c = tl.constructions
    hosts = []
    for kind in ("K3", "T3"):
        for i in range(PIPELINE_HOSTS):
            attempt = 0
            while True:
                rng = random.Random(f"pipeline:{seed}:{kind}:{i}:{attempt}")
                attempt += 1
                if kind == "K3":
                    g = tl.graphs.Graph(PIPELINE_N, _sample_pairs(rng, False))
                    if tl.degseq.check_margin_sequence(g, 3, 0).satisfied:
                        break
                else:
                    g = tl.graphs.Digraph(PIPELINE_N, _sample_pairs(rng, True))
                    if tl.degseq.check_dominant_margin(g, 3, 0).satisfied:
                        break
            rng_seed = random.Random(f"pipeline-seed:{seed}:{kind}:{i}").getrandbits(32)
            hosts.append((kind, g, rng_seed))
    return SimpleNamespace(hosts=hosts, k3=c.clique_pattern(3), t3=c.transitive_pattern(3))


def _sample_pairs(rng, directed):
    n = PIPELINE_N
    if directed:
        return [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < PIPELINE_P]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < PIPELINE_P]


def _build_experiment(tl, seed):
    argvs = []
    for sampler, n, gamma, p, pattern in EXPERIMENT_SPECS:
        argvs.append(["experiment", "--sampler", sampler, "--n", str(n), "--r", "3",
                      "--gamma", gamma, "--p", str(p), "--pattern", pattern,
                      "--trials", str(TRIALS), "--seed", str(seed), "--jobs", "1", "--quiet"])
    return SimpleNamespace(argvs=argvs)


# -- operations ------------------------------------------------------------------


def operations(tl, workload: str, inputs) -> list[Op]:
    return {"exact": _exact_ops, "certify": _certify_ops,
            "pipeline": _pipeline_ops, "experiment": _experiment_ops}[workload](tl, inputs)


def _host(g) -> checks.Host:
    if hasattr(g, "arcs"):
        return checks.Host(g.n, g.arcs, directed=True)
    return checks.Host(g.n, g.edges, directed=False)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise checks.CheckFailed(f"expectation does not hold: {what}")


def _exact_ops(tl, inp) -> list[Op]:
    packing = tl.packing  # looked up at call time, so a traced run sees the wrappers
    ops = []
    for r, g, pat in inp.hs:
        _expect(checks.no_perfect_clique_packing(_host(g), r), f"hs_tight({r},{g.n}) has unequal classes")

        def check_none(out, g=g):
            if out is not None:
                raise checks.CheckFailed(f"packing returned on hs_tight n={g.n}, which has none")

        ops.append(Op(f"find_perfect_packing hs_tight({r},{g.n})",
                      lambda g=g, pat=pat: packing.find_perfect_packing(g, pat), check_none))

    host36 = _host(inp.ext36.graph)
    _expect(checks.star_forest_neighbourhood(host36, 0), "N(0) of the n=36 instance is a star forest")
    bound = 6 * ((host36.n - 1) // 6)
    k222 = checks.multipartite_edges(2, 2, 2)

    def check_max(res):
        if not res.optimal:
            raise checks.CheckFailed("max_packing not optimal without a budget")
        checks.check_max_coverage(host36, res.packing.parts, k222, bound)

    ops.append(Op("max_packing K2,2,2 extremal n=36",
                  lambda: packing.max_packing(inp.ext36.graph, inp.k222), check_max))

    def check_cycle(out):
        if out is None:
            raise checks.CheckFailed("C_3000 reported without a perfect K2-packing")
        checks.check_packing(_host(inp.cycle), out.parts, checks.clique_edges(2), perfect=True)

    ops.append(Op(f"find_perfect_packing K2 cycle n={DEEP_CYCLE}",
                  lambda: packing.find_perfect_packing(inp.cycle, inp.k2), check_cycle))

    def check_edgeless(res):
        if not res.optimal:
            raise checks.CheckFailed("max_packing not optimal without a budget")
        checks.check_max_coverage(_host(inp.edgeless), res.packing.parts, checks.clique_edges(2), 0)

    ops.append(Op(f"max_packing K2 edgeless n={DEEP_EDGELESS}",
                  lambda: packing.max_packing(inp.edgeless, inp.k2), check_edgeless))
    return ops


def _certify_ops(tl, inp) -> list[Op]:
    constructions = tl.constructions
    k222 = checks.multipartite_edges(2, 2, 2)
    ops = []
    for inst in (inp.ext144, inp.ext36):
        host = _host(inst.graph)
        _expect(checks.star_forest_neighbourhood(host, 0),
                f"N(0) of the n={host.n} instance is a star forest")

        def check_uncoverable(res, n=host.n):
            if not res.uncoverable or res.refutation is not None:
                raise checks.CheckFailed(f"vertex 0 of the n={n} instance reported coverable")

        ops.append(Op(f"certify_uncoverable extremal n={host.n} v=0",
                      lambda g=inst.graph: constructions.certify_uncoverable(g, 0, inp.k222),
                      check_uncoverable))

    host144 = _host(inp.ext144.graph)
    others = [u for u in inp.v3 if u != inp.control][:5]
    _expect(checks.spans(host144, [inp.control] + others, k222),
            f"vertex {inp.control} lies in a K2,2,2 inside V_3")

    def check_refuted(res):
        if res.uncoverable or res.refutation is None or inp.control not in res.refutation:
            raise checks.CheckFailed(f"coverable vertex {inp.control} not refuted")
        checks.check_packing(host144, [res.refutation], k222, perfect=False)

    ops.append(Op(f"certify_uncoverable extremal n=144 v={inp.control} (control)",
                  lambda: constructions.certify_uncoverable(inp.ext144.graph, inp.control, inp.k222),
                  check_refuted))
    return ops


def _pipeline_ops(tl, inp) -> list[Op]:
    absorbing = tl.absorbing
    ops = []
    for i, (kind, g, rng_seed) in enumerate(inp.hosts):
        _expect(checks.meets_margin(_host(g), 3, Fraction(0)), f"{kind} host {i} meets the condition")
        pat = inp.k3 if kind == "K3" else inp.t3
        edges = checks.clique_edges(3) if kind == "K3" else checks.transitive_arcs(3)

        def run(g=g, pat=pat, rng_seed=rng_seed):
            res = absorbing.pipeline(g, pat, rng_seed=rng_seed, max_gadgets=PIPELINE_MAX_GADGETS)
            if not res.success:
                raise OperationRefused(f"stage {res.stage}: {res.diagnostics.get('reason')}")
            return res

        def check(res, g=g, edges=edges):
            checks.check_packing(_host(g), res.packing.parts, edges, perfect=True)

        ops.append(Op(f"pipeline {kind} host {i}", run, check))
    return ops


def _experiment_ops(tl, inp) -> list[Op]:
    cli = tl.cli
    first_csv: dict[int, str] = {}
    ops = []
    for k, ((sampler, n, _, _, pattern), argv) in enumerate(zip(EXPERIMENT_SPECS, inp.argvs)):
        directed = pattern.startswith("T")
        edges = checks.transitive_arcs(3) if directed else checks.clique_edges(3)

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(output, k=k, sampler=sampler, n=n, directed=directed, edges=edges):
            code, text = output
            rows = checks.check_experiment_csv(text, TRIALS, n)
            nones = [row for row in rows if row["verdict"] == "none"]
            if code != (1 if nones else 0):
                raise checks.CheckFailed(f"exit code {code} with {len(nones)} none rows")
            if sampler == "gnp-min-degree" and nones:
                raise checks.CheckFailed("a none verdict under the Hajnal-Szemeredi degree")
            for row in nones:
                if checks.has_perfect_packing(checks.violation_host(row, directed), edges):
                    raise checks.CheckFailed(f"trial {row['trial']}: none, but a packing exists")
            if first_csv.setdefault(k, text) != text:
                raise checks.CheckFailed(f"{sampler}: CSV differs between repeats of one seed")

        ops.append(Op(f"experiment {sampler} n={n} {pattern} x{TRIALS}", run, check))
    return ops
