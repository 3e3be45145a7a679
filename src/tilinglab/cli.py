"""Command-line front door.

Commands: gen, check, pack, maxpack, improve, path, absorbfam, absorb,
pipeline, experiment, certify.  Graph files use the JSON format
{"kind": "graph"|"digraph", "n": ..., "edges": [[u, v], ...]} or the
edge-list text format with header "n m kind"; packings, condition reports
and absorbing families serialize to JSON; traces and experiments to CSV.

Exit codes: 0 success/found/satisfied, 1 condition not satisfied or
refutation found, 2 input error, 3 proven NONE / construction failure,
4 budget exhausted.  There is one error boundary: a subcommand raises on
bad input, and `main` alone turns any `ValueError` or `OSError` (an
unreadable or malformed file, a bad pattern or parameter, an unwritable
`--out`) into one "input error: ..." line on stderr and exit 2; argparse's
own usage errors exit 2 as well.  Codes 1, 3 and 4 are verdicts, which
each subcommand returns itself: 3 for a proven NONE (`pack`, `path`) or a
failed construction (`absorbfam`, `absorb`, `pipeline`), 4 when the node
budget ran out (`pack`, `maxpack`, `improve`, `experiment`).

Experiment CSVs contain only deterministic fields (search-node counts as
the cost measure, never wall-clock), so one seed always produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import absorbing, constructions, degseq, exchange, packing
from .graphs import Digraph, Graph, degree_sequence, graph_to_json, load_graph
from .util import split_seed

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT = 2
EXIT_NONE = 3
EXIT_BUDGET = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load(path: str):
    try:
        return load_graph(path)
    except MemoryError:  # e.g. a vertex count whose rows cannot be allocated
        raise ValueError(f"{path} is too large to load") from None


def _host_and_pattern(args):
    """The host file and the pattern; ValueError when their kinds differ."""
    g = _load(args.file)
    pat = constructions.pattern_from_name(args.pattern)
    if pat.is_digraph != isinstance(g, Digraph):
        raise ValueError(f"pattern {pat.name} needs a {pat.base.kind} host")
    return g, pat


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """argparse type of an exact rational such as 1/20, 0.05 or -1/5."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _budget(args) -> packing.SearchBudget | None:
    return None if args.budget_nodes is None else packing.SearchBudget(args.budget_nodes)


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(s) for s in text.split(","))


# -- gen ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    preset = args.preset
    if preset in ("hs-tight", "extremal-square") and args.n is None:
        raise ValueError(f"{preset} needs --n")
    if preset == "tr":
        g = constructions.transitive_tournament(args.r)
    elif preset == "kr-power":
        g = constructions.pattern_power("K", args.r, args.t)
    elif preset == "tr-power":
        g = constructions.pattern_power("T", args.r, args.t)
    elif preset == "hs-tight":
        g = constructions.hs_tight_instance(args.r, args.n)
    else:  # extremal-square: argparse's choices admit no other preset
        parts = _int_list(args.parts) if args.parts else tuple([2] * args.r)
        stars = _int_list(args.stars) if args.stars else ()
        params = constructions.ExtremalParams(args.r, parts, args.n, args.C, stars)
        inst = constructions.extremal_instance(params)
        g = inst.graph
        _say(
            args,
            "classes: "
            + " ".join(f"|V_{i+1}|={len(c)}" for i, c in enumerate(inst.classes))
            + f"; stars: {[len(s) for s in inst.stars]}; v={inst.v}",
        )
    _write(args.out, graph_to_json(g))
    return EXIT_OK


# -- check ---------------------------------------------------------------------


# short names that `check --condition` accepts for condition-table names
_CONDITION_ALIASES = {"hs": "hajnal-szemeredi", "ay": "alon-yuster", "dominant": "dominant-margin"}


def cmd_check(args) -> int:
    g = _load(args.file)
    reports = []
    for name in args.condition.split(","):
        name = name.strip()
        reports.append(
            degseq.check_baseline(g, _CONDITION_ALIASES.get(name, name), args.r, args.gamma)
        )
    if args.format == "json":
        _write(args.out, json.dumps([r.to_json_obj() for r in reports], indent=2))
    else:
        lines = []
        for rep in reports:
            state = "satisfied" if rep.satisfied else "NOT satisfied"
            extra = f" ({rep.detail})" if rep.detail else ""
            bad = (
                f" first violation at index {rep.first_violating_index}"
                if rep.first_violating_index
                else ""
            )
            lines.append(f"{rep.name}: {state}{extra}{bad}")
        _write(args.out, "\n".join(lines))
    return EXIT_OK if all(r.satisfied for r in reports) else EXIT_UNSATISFIED


# -- pack / maxpack --------------------------------------------------------------


def cmd_pack(args) -> int:
    g, pat = _host_and_pattern(args)
    budget = _budget(args)
    try:
        result = packing.find_perfect_packing(g, pat, budget)
    except packing.BudgetExhausted:
        _say(args, "budget exhausted before a decision")
        return EXIT_BUDGET
    if result is None:
        reason = packing.barrier(g, pat, g.full_mask())
        _say(args, "no perfect packing exists "
             + ("(search exhausted)" if reason is None else f"(barrier: {reason})"))
        return EXIT_NONE
    _write(args.out, json.dumps(result.to_json_obj()))
    return EXIT_OK


def cmd_maxpack(args) -> int:
    g, pat = _host_and_pattern(args)
    budget = _budget(args)
    res = packing.max_packing(g, pat, budget)
    obj = res.packing.to_json_obj()
    obj["covered"] = res.packing.coverage()
    obj["optimal"] = res.optimal
    obj["nodes"] = res.nodes
    _write(args.out, json.dumps(obj))
    return EXIT_OK if res.optimal else EXIT_BUDGET


# -- improve (expansion loop) ----------------------------------------------------


def cmd_improve(args) -> int:
    g = _load(args.file)
    if not isinstance(g, Digraph):
        raise ValueError("improvement loop runs on digraphs")
    res = exchange.blowup_iterate(
        g, args.r, args.z, args.gamma,
        budget=_budget(args), seed_policy=args.seed_policy,
    )
    _write(args.out, exchange.trace_to_csv(res.trace))
    _say(args, f"final coverage {res.packing.coverage()}/{res.packing.n}")
    return EXIT_BUDGET if res.seed_optimal is False else EXIT_OK


# -- connecting paths --------------------------------------------------------------


def cmd_path(args) -> int:
    g, pat = _host_and_pattern(args)
    path = absorbing.find_connecting_path(
        g, pat, args.x, args.y, args.t, beta_count=args.beta_count
    )
    if path is None:
        _say(args, "no connecting path found (search exhausted)")
        return EXIT_NONE
    obj = {
        "pattern": pat.name,
        "connectors": list(path.connectors),
        "blocks": [list(b) for b in path.blocks],
    }
    _write(args.out, json.dumps(obj))
    return EXIT_OK


# -- absorbing family / absorb ------------------------------------------------------


def cmd_absorbfam(args) -> int:
    g, pat = _host_and_pattern(args)
    try:
        fam = absorbing.build_absorbing_family(
            g,
            pat,
            t=args.t,
            sample_size=args.sample_size,
            rng_seed=args.seed,
            max_gadgets=args.max_gadgets,
        )
    except absorbing.FamilyConstructionError as exc:
        _say(args, f"construction failed: {exc}")
        return EXIT_NONE
    _write(args.out, json.dumps(fam.to_json_obj()))
    return EXIT_OK


def cmd_absorb(args) -> int:
    g, pat = _host_and_pattern(args)
    with open(args.family) as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:  # nested deeper than the decoder follows
            raise ValueError(f"bad family file: {exc}") from exc
    fam = absorbing.AbsorbingFamily.from_json_obj(obj)
    diag: dict = {}
    result = absorbing.absorb(g, pat, fam, _int_list(args.w), diagnostics=diag)
    if result is None:
        _say(args, f"absorption failed: {diag.get('reason', 'unknown')}")
        return EXIT_NONE
    _write(args.out, json.dumps(result.to_json_obj()))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    g, pat = _host_and_pattern(args)
    res = absorbing.pipeline(
        g,
        pat,
        t=args.t,
        sample_size=args.sample_size,
        rng_seed=args.seed,
        max_gadgets=args.max_gadgets,
    )
    if not res.success:
        _say(args, f"pipeline failed at stage {res.stage}: {res.diagnostics}")
        return EXIT_NONE
    _write(args.out, json.dumps(res.packing.to_json_obj()))
    return EXIT_OK


# -- certify --------------------------------------------------------------------


def cmd_certify(args) -> int:
    g, pat = _host_and_pattern(args)
    res = constructions.certify_uncoverable(g, args.vertex, pat)
    if res.uncoverable:
        _say(
            args,
            f"NONE-FOUND: vertex {args.vertex} lies in no copy of {pat.name}"
            + (
                "; order divisible, hence no perfect packing exists"
                if g.n % pat.order == 0
                else ""
            ),
        )
        return EXIT_OK
    _say(args, f"refuted: {res.refutation} spans {pat.name} through {args.vertex}")
    return EXIT_UNSATISFIED


# -- experiment --------------------------------------------------------------------


# each sampler: the kind of host it draws and the condition a sample must meet
_SAMPLERS = {
    "gnp": (Graph, None),
    "gnp-min-degree": (Graph, "hajnal-szemeredi"),
    "gnp-exact": (Graph, "exact"),
    "gnp-margin": (Graph, "margin"),
    "gnp-dominant": (Digraph, "dominant-margin"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully determined batch experiment: sampler, condition parameters,
    pattern, budgets, trial count and the master seed.

    The per-spec work is done once, here: the pattern is parsed, and a
    conditioned sampler's `DegreeCondition` gives its threshold vector at
    order n, which every sampled host is compared with, and whether K_n
    meets it (when it does not, no trial samples).  So a spec the
    condition refuses (r < 2, a negative gamma, r not dividing n under
    gnp-exact) fails before any sampling, as does a negative n or a density
    p outside [0, 1] under any sampler.
    """

    sampler: str
    n: int
    r: int
    gamma: str
    p: float
    pattern: str
    trials: int
    seed: int
    budget_nodes: int = 10_000_000
    max_attempts: int = 100_000

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is not a nonnegative integer")
        if not 0 <= self.p <= 1:
            raise ValueError(f"density {self.p} is not in [0, 1]")
        if self.trials < 1:
            raise ValueError("trial count >= 1 required")
        if self.budget_nodes < 1:
            raise ValueError("node budget >= 1 required")
        if self.max_attempts < 1:
            raise ValueError("max attempts >= 1 required")
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.seed is None:
            raise ValueError("a seed is required: every trial derives from it")
        kind, name = _SAMPLERS[self.sampler]
        pat = constructions.pattern_from_name(self.pattern)
        if pat.is_digraph != (kind is Digraph):
            raise ValueError(f"pattern {pat.name} needs a {pat.base.kind} sampler")
        thresholds = None
        feasible = True
        if name is not None:
            condition = degseq.DegreeCondition(name, self.r, Fraction(self.gamma))
            thresholds = condition.thresholds(self.n)
            # no host of order n has larger degrees than K_n: if K_n fails
            # the condition, every sample would
            feasible = degseq.first_violation([self.n - 1] * self.n, thresholds) is None
        object.__setattr__(self, "_pattern", pat)
        object.__setattr__(self, "_thresholds", thresholds)
        object.__setattr__(self, "_feasible", feasible)


def _sample(rng: random.Random, kind: type, n: int, p: float) -> Graph | Digraph:
    """Each pair of a graph, or each ordered pair of a digraph, with probability p.

    Pairs are decided row by row, each row ascending, exactly as one
    ``rng.random() < p`` per candidate pair would decide them, and the
    stream is left in the same state; the draws are taken in bulk.

    This rests on CPython's Mersenne Twister: ``random()`` is K / 2**53 with
    K = (a >> 5) * 2**26 + (b >> 6), a and b its next two 32-bit outputs, so
    ``random() < p`` holds exactly when K < t = ceil(p * 2**53); and
    ``getrandbits(64 * m)`` returns the next 2m outputs, least significant
    first.  K's top byte is a's, so a pair is decided by a's top byte
    alone unless it equals t's (about one pair in 256), when the full K is
    compared.
    """
    if n < 2:
        return kind(n)
    directed = kind is Digraph
    m = n * (n - 1) if directed else n * (n - 1) // 2
    t = math.ceil(p * 2.0**53)
    top = t >> 45
    words = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
    # b"1" below t's top byte, b"0" above it, b"?" on a tie
    flags = bytearray(words[3::8].translate((b"1" * top + b"?" + b"0" * 255)[:256]))
    tie = flags.find(b"?")
    while tie >= 0:
        ab = int.from_bytes(words[8 * tie:8 * tie + 8], "little")
        flags[tie] = ord("1" if (ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38 < t else "0")
        tie = flags.find(b"?", tie + 1)
    # the n x n matrix of flags, row-major, "0" where no pair is drawn
    if directed:
        # n flags at a time fill the cells between two diagonal cells
        matrix = b"0".join([b"", *[flags[s:s + n] for s in range(0, m, n)], b""])
    else:
        zeros = b"0" * n
        rows = []
        s = 0
        for i in range(1, n + 1):
            rows.append(zeros[:i] + flags[s:s + n - i])
            s += n - i
        matrix = b"".join(rows)
    # bit i*n + j of out is cell (i, j); of inn, cell (j, i)
    out = int(matrix[::-1], 2)
    inn = int(b"".join([matrix[j::n] for j in range(n)])[::-1], 2)
    mask = (1 << n) - 1
    starts = range(0, n * n, n)
    if directed:
        return Digraph._from_rows(
            n, [out >> s & mask for s in starts], [inn >> s & mask for s in starts]
        )
    adj = out | inn
    return Graph._from_rows(n, [adj >> s & mask for s in starts])


# the columns of an experiment row, in CSV order
_FIELDS = ("trial", "n", "m", "attempts", "conditions", "verdict", "nodes", "violation")


def run_trial(spec: ExperimentSpec, trial: int) -> tuple:
    """One experiment trial's row, in `_FIELDS` order; fully determined by
    (spec, trial)."""
    kind, _ = _SAMPLERS[spec.sampler]
    thresholds = spec._thresholds
    n = spec.n
    # a spec that even K_n fails gives up without sampling
    attempts = 0 if spec._feasible else spec.max_attempts
    # one generator per trial: each attempt draws on from where the last stopped
    rng = random.Random(split_seed(spec.seed, trial))
    while True:
        if attempts >= spec.max_attempts:
            return (trial, n, "", attempts, "sampling-failed", "no-instance", 0, "")
        # density schedule: push p upward every 200 rejections, to at most
        # 0.98 unless p itself is higher
        p_eff = min(max(spec.p, 0.98), spec.p + 0.05 * (attempts // 200))
        g = _sample(rng, kind, n, p_eff)
        attempts += 1
        if thresholds is None or (
            degseq.first_violation(degree_sequence(g), thresholds) is None
        ):
            break
    budget = packing.SearchBudget(spec.budget_nodes)
    try:
        # a found packing is verified inside find_perfect_packing
        found = packing.find_perfect_packing(g, spec._pattern, budget)
        verdict = "found" if found is not None else "none"
    except packing.BudgetExhausted:
        verdict = "exhausted"
    conditions = "unconditioned" if thresholds is None else "satisfied"
    violation = ""
    if verdict == "none" and thresholds is not None:
        # counterexample: dump the instance verbatim for triage
        violation = ";".join(f"{u}-{v}" for u, v in g.pairs())
    return (trial, n, g.edge_count(), attempts, conditions, verdict, budget.nodes, violation)


def experiment_csv(spec: "ExperimentSpec | dict", jobs: int = 1) -> str:
    """Per-trial CSV plus a summary row; byte-identical for a fixed spec.

    Trials are independent (each seeds its own generator from the trial
    index), so they may run in parallel, in at most one process per trial;
    rows are always emitted in trial order.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec(**spec)
    trials = range(spec.trials)
    workers = min(jobs, spec.trials)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.starmap(run_trial, [(spec, t) for t in trials])
    else:
        rows = [run_trial(spec, t) for t in trials]
    lines = [",".join(_FIELDS)]
    lines.extend(",".join(map(str, row)) for row in rows)
    column = dict(zip(_FIELDS, zip(*rows)))
    verdicts = column["verdict"]
    attempts = sum(column["attempts"])
    accepted = len(rows) - column["conditions"].count("sampling-failed")
    accept = f"{accepted / attempts:.4f}"
    lines.append(
        f"summary,trials={spec.trials},found={verdicts.count('found')},"
        f"none={verdicts.count('none')},exhausted={verdicts.count('exhausted')},"
        f"attempts={attempts},accept-rate={accept},"
    )
    return "\n".join(lines) + "\n"


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        sampler=args.sampler,
        n=args.n,
        r=args.r,
        gamma=str(args.gamma),
        p=args.p,
        pattern=args.pattern,
        trials=args.trials,
        seed=args.seed,
        budget_nodes=args.budget_nodes,
        max_attempts=args.max_attempts,
    )
    csv_text = experiment_csv(spec, jobs=args.jobs)
    _write(args.out, csv_text)
    tail = csv_text.strip().rsplit("\n", 1)[-1]
    _say(args, tail)
    counts = dict(field.split("=") for field in tail.split(",")[1:] if field)
    if counts["none"] != "0" and spec._thresholds is not None:
        return EXIT_UNSATISFIED
    if counts["exhausted"] != "0":
        return EXIT_BUDGET
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilinglab",
        description="Perfect-tiling laboratory: generators, degree-sequence "
        "checks, exact packing search, improvement loops, absorbing structures "
        "and batch experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0),
        "--budget-nodes": dict(type=_positive_int, default=None,
                               help="node limit of the exact search, a positive integer"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--out": dict(default=None, help="output path (default stdout)"),
    }

    def common(p, *flags):
        # --quiet everywhere; of the other shared flags, only those p reads
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gen", help="generate a preset graph file")
    p.add_argument("preset", choices=("tr", "kr-power", "tr-power", "extremal-square", "hs-tight"))
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--C", type=int, default=1)
    p.add_argument("--parts", default=None, help="pattern class sizes, e.g. 2,2,2")
    p.add_argument("--stars", default=None, help="star sizes, e.g. 6,5,5")
    common(p, "--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="evaluate degree-sequence conditions")
    p.add_argument("file")
    p.add_argument("--condition", default="exact",
                   help="comma list of exact, margin, dominant-margin (dominant), "
                   "hajnal-szemeredi (hs), alon-yuster (ay), ore, posa")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=_rational, default="0")
    common(p, "--format", "--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pack", help="exact perfect-packing decision")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    common(p, "--budget-nodes", "--out")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("maxpack", help="maximum-coverage packing")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    common(p, "--budget-nodes", "--out")
    p.set_defaults(func=cmd_maxpack)

    # no abbreviations, so a --seed is not read as --seed-policy
    p = sub.add_parser("improve", help="exchange/upgrade expansion loop", allow_abbrev=False)
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=_rational, default="0")
    p.add_argument("--z", type=int, default=0, help="blow-up rounds")
    p.add_argument("--seed-policy", choices=("auto", "max", "greedy"), default="auto")
    common(p, "--budget-nodes", "--out")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("path", help="connecting pattern-path search")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--beta-count", type=int, default=1)
    common(p, "--out")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("absorbfam", help="build an absorbing family")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--sample-size", type=int, default=200)
    p.add_argument("--max-gadgets", type=int, default=None)
    common(p, "--seed", "--out")
    p.set_defaults(func=cmd_absorbfam)

    p = sub.add_parser("absorb", help="absorb a leftover set with a family")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--w", default="", help="comma list of vertices")
    common(p, "--out")
    p.set_defaults(func=cmd_absorb)

    p = sub.add_parser("pipeline", help="absorb-then-pack end to end")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--sample-size", type=int, default=200)
    p.add_argument("--max-gadgets", type=int, default=None)
    common(p, "--seed", "--out")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("certify", help="exhaustive uncoverable-vertex certificate")
    p.add_argument("file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--vertex", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("experiment", help="batch sampling experiments, CSV out")
    p.add_argument("--sampler", default="gnp")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--gamma", type=_rational, default="0")
    p.add_argument("--p", type=float, default=0.7)
    p.add_argument("--pattern", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=ExperimentSpec.max_attempts)
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p, "--seed", "--budget-nodes", "--out")
    p.set_defaults(func=cmd_experiment, budget_nodes=ExperimentSpec.budget_nodes)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place an input failure becomes exit 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # in-process calls get the code, not the raise
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
