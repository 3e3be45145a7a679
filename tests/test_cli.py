import json
import random
from dataclasses import asdict

import pytest

from tilinglab import degseq
from tilinglab.cli import main
from tilinglab.degseq import check_baselines
from tilinglab.util import as_fraction
from tilinglab.constructions import complete_graph, complete_multipartite, hs_tight_instance
from tilinglab.graphs import Graph, graph_from_json, graph_to_json


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(graph_to_json(g))
    return str(path)


def test_gen_and_load(tmp_path):
    out = tmp_path / "t3.json"
    assert main(["gen", "tr", "--r", "3", "--out", str(out)]) == 0
    g = graph_from_json(out.read_text())
    assert g.n == 3 and g.edge_count() == 3

    out2 = tmp_path / "ext.json"
    assert main([
        "gen", "extremal-square", "--r", "3", "--n", "36", "--C", "1",
        "--quiet", "--out", str(out2),
    ]) == 0
    assert graph_from_json(out2.read_text()).n == 36

    assert main(["gen", "kr-power", "--r", "3", "--t", "2", "--out",
                 str(tmp_path / "k.json")]) == 0
    # invalid parameters answer with the input-error code
    assert main([
        "gen", "extremal-square", "--r", "3", "--n", "36", "--C", "9",
        "--quiet", "--out", str(tmp_path / "x.json"),
    ]) == 2


def test_check_exit_codes(tmp_path):
    k6 = write_graph(tmp_path, "k6.json", complete_graph(6))
    assert main(["check", k6, "--condition", "exact", "--r", "3", "--quiet"]) == 0
    k33 = write_graph(tmp_path, "k33.json", complete_multipartite(3, 3))
    assert main(["check", k33, "--condition", "exact", "--r", "3", "--quiet"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["check", str(bad), "--condition", "exact", "--r", "3"]) == 2


def test_check_names_failing_clause(tmp_path, capsys):
    k33 = write_graph(tmp_path, "k33.json", complete_multipartite(3, 3))
    code = main(["check", k33, "--condition", "exact", "--r", "3",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 1 and "(b)" in out


def test_check_csv_goes_to_out(tmp_path, capsys):
    k33 = write_graph(tmp_path, "k33.json", complete_multipartite(3, 3))
    out = tmp_path / "check.csv"
    code = main(["check", k33, "--condition", "exact", "--r", "3",
                 "--format", "csv", "--out", str(out)])
    assert code == 1 and "(b)" in out.read_text()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("gamma", ["0", "1/10", "-1/5"])
def test_check_baseline_conditions(tmp_path, capsys, monkeypatch, gamma):
    rng = random.Random(f"baselines:{gamma}")
    g = Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.7])
    path = write_graph(tmp_path, "g.json", g)
    reports = check_baselines(g, 3, as_fraction(gamma))
    real = {name: degseq._CONDITIONS[name] for name in reports}

    def refuse(*args):
        raise AssertionError("a baseline that was not named ran")

    names = {"hs": "hajnal-szemeredi", "ay": "alon-yuster", "ore": "ore", "posa": "posa"}
    for short, name in names.items():
        for other, (host, check) in real.items():
            monkeypatch.setitem(degseq._CONDITIONS, other, (host, check if other == name else refuse))
        code = main(["check", path, "--condition", short, "--r", "3",
                     f"--gamma={gamma}", "--format", "json"])
        assert json.loads(capsys.readouterr().out) == [reports[name].to_json_obj()]
        assert code == (0 if reports[name].satisfied else 1)
        code = main(["check", path, "--condition", short, "--r", "1", f"--gamma={gamma}"])
        assert code == 2 and capsys.readouterr().err == "input error: r >= 2 required\n"


def test_pack_exit_codes(tmp_path):
    k6 = write_graph(tmp_path, "k6.json", complete_graph(6))
    out = tmp_path / "p.json"
    assert main(["pack", k6, "--pattern", "K3", "--out", str(out)]) == 0
    packing = json.loads(out.read_text())
    assert packing["pattern"] == "K3" and len(packing["parts"]) == 2

    star = write_graph(tmp_path, "star.json", complete_multipartite(3, 1))
    assert main(["pack", star, "--pattern", "K2", "--quiet"]) == 3

    k9 = write_graph(tmp_path, "k9.json", complete_graph(9))
    assert main(["pack", k9, "--pattern", "K3", "--budget-nodes", "1",
                 "--quiet"]) == 4


def test_pack_none_names_its_barrier(tmp_path, capsys):
    # the root barrier that refutes the host, or an exhausted search when
    # none does: two triangles have no perfect matching, yet no barrier
    # the search checks holds
    pendant = Graph(12, [(u, v) for u in range(11) for v in range(u + 1, 11)] + [(0, 11)])
    triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cases = [
        (hs_tight_instance(3, 18), "K3",
         "barrier: space, an independent twin class of 7 of 18 vertices"),
        (pendant, "K2,2", "barrier: local vertex 11"),
        (complete_graph(7), "K3", "barrier: divisibility, 7 vertices"),
        (triangles, "K2", "search exhausted"),
    ]
    for i, (g, name, reason) in enumerate(cases):
        path = write_graph(tmp_path, f"none{i}.json", g)
        assert main(["pack", path, "--pattern", name]) == 3
        assert capsys.readouterr().out == f"no perfect packing exists ({reason})\n"


def test_maxpack(tmp_path, capsys):
    k5 = write_graph(tmp_path, "k5.json", complete_graph(5))
    assert main(["maxpack", k5, "--pattern", "K3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["covered"] == 3 and obj["optimal"] is True


def test_pack_and_maxpack_on_deep_hosts(tmp_path, capsys):
    # searches far deeper than Python's recursion limit answer normally
    n = 3000
    cycle = write_graph(tmp_path, "c3000.json", Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    assert main(["pack", cycle, "--pattern", "K2"]) == 0
    parts = json.loads(capsys.readouterr().out)["parts"]
    assert len(parts) == n // 2 and sorted(v for p in parts for v in p) == list(range(n))

    edgeless = write_graph(tmp_path, "e1500.json", Graph(1500))
    assert main(["maxpack", edgeless, "--pattern", "K2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["covered"], obj["optimal"], obj["nodes"]) == (0, True, 1500)


def test_improve_and_trace(tmp_path):
    import random

    from oracles import sample_tournament

    d = sample_tournament(random.Random(9), 8)
    path = write_graph(tmp_path, "t.json", d)
    out = tmp_path / "trace.csv"
    assert main(["improve", path, "--r", "3", "--gamma", "1/20",
                 "--quiet", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "round,phase,covered,n,proportion"
    assert len(lines) >= 4


def test_improve_budget_cut_seed_exits_4(tmp_path):
    import random

    from oracles import sample_tournament

    path = write_graph(tmp_path, "t.json", sample_tournament(random.Random(4), 11))
    out = tmp_path / "trace.csv"
    argv = ["improve", path, "--r", "3", "--quiet", "--out", str(out)]
    assert main(argv) == 0
    full = out.read_text()
    assert main(argv + ["--budget-nodes", "1"]) == 4
    # the cut run still writes its trace, from a worse exact seed
    cut = out.read_text()
    assert cut.startswith("round,phase,covered,n,proportion\n0,seed:max,") and cut != full


def test_path_command(tmp_path):
    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    out = tmp_path / "path.json"
    assert main(["path", k12, "--pattern", "K3", "--x", "0", "--y", "11",
                 "--t", "2", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["connectors"][0] == 0 and obj["connectors"][-1] == 11

    two = write_graph(
        tmp_path,
        "two.json",
        complete_multipartite(1, 1),  # edgeless pair
    )
    assert main(["path", two, "--pattern", "K2", "--x", "0", "--y", "1",
                 "--t", "1", "--quiet"]) == 3


@pytest.mark.parametrize("n,t,code", [(302, 150, 0), (301, 150, 3)])
def test_path_runs_deeper_than_the_recursion_limit(tmp_path, n, t, code):
    """K2-paths on a cycle are cycle paths of twice the length.  On C_{2t+2}
    the one path of length t from 0 to 2 goes the long way round; on
    C_{2t+1} there is none, and the search walks t levels deep before it
    says so.  Either way the answer comes with the recursion limit far
    below t, as a verdict code and not a traceback."""
    from oracles import recursion_room

    cycle = write_graph(tmp_path, "cycle.json", Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    out = tmp_path / "path.json"
    with recursion_room(60):
        got = main(["path", cycle, "--pattern", "K2", "--x", "0", "--y", "2",
                    "--t", str(t), "--quiet", "--out", str(out)])
    assert got == code
    if code == 0:
        obj = json.loads(out.read_text())
        assert obj["connectors"] == [0, *range(n - 2, 0, -2)]
        assert obj["blocks"] == [[v] for v in range(n - 1, 2, -2)]


def test_absorb_family_flow(tmp_path):
    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    fam = tmp_path / "fam.json"
    assert main(["absorbfam", k12, "--pattern", "K3", "--seed", "5",
                 "--sample-size", "80", "--max-gadgets", "3",
                 "--out", str(fam)]) == 0
    fam_obj = json.loads(fam.read_text())
    assert len(fam_obj["gadgets"]) == 3

    w = sorted(set(range(12)) - set(fam_obj["M"]))[:3]
    out = tmp_path / "abs.json"
    assert main(["absorb", k12, "--pattern", "K3", "--family", str(fam),
                 "--w", ",".join(map(str, w)), "--out", str(out)]) == 0
    packed = json.loads(out.read_text())
    covered = {v for part in packed["parts"] for v in part}
    assert covered == set(fam_obj["M"]) | set(w)

    edgeless = write_graph(tmp_path, "e.json", complete_multipartite(1, 1))
    assert main(["absorbfam", edgeless, "--pattern", "K2", "--quiet",
                 "--sample-size", "10"]) == 3


def test_absorb_rejects_vertices_outside_the_host(tmp_path, capsys):
    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    fam = tmp_path / "fam.json"
    assert main(["absorbfam", k12, "--pattern", "K3", "--seed", "5",
                 "--sample-size", "80", "--max-gadgets", "3",
                 "--out", str(fam)]) == 0
    bad_fam, unhashable, shapeless, overlapping, missized = (
        tmp_path / f"{name}.json" for name in "busom"
    )
    bad_fam.write_text(json.dumps({"gadgets": [{"verts": ["a", "b"], "pairs_checked": 0}]}))
    unhashable.write_text(json.dumps({"gadgets": [{"verts": [[0], [1]], "pairs_checked": 0}]}))
    shapeless.write_text(json.dumps({"gadgets": [{"verts": 5, "pairs_checked": 0}]}))
    overlapping.write_text(json.dumps({"gadgets": [
        {"verts": verts, "pairs_checked": 1} for verts in ([0, 1], [1, 2], [3, 4])
    ]}))
    missized.write_text(json.dumps({"gadgets": [
        {"verts": verts, "pairs_checked": 1} for verts in ([0, 1], [2, 3, 4], [5, 6])
    ]}))
    free = sorted(set(range(12)) - set(json.loads(fam.read_text())["M"]))[:3]
    out = tmp_path / "abs.json"
    for family, w, bad in (
        (fam, "99,100,101", "vertex 99 out of range 0..11"),
        (fam, "-1,9,10", "vertex -1 out of range 0..11"),
        (fam, "a,9,10", "invalid literal for int()"),
        (bad_fam, ",".join(map(str, free)), "vertex 'a' is not an integer"),
        (unhashable, ",".join(map(str, free)), "vertex [0] is not an integer"),
        (shapeless, ",".join(map(str, free)), "bad family file"),
        (overlapping, "5,6,7", "gadgets share vertices [1]"),
        (missized, "7,8,9", "gadget 1 [2, 3, 4] has 3 vertices; a K3 gadget has t*3-1"),
    ):
        argv = ["absorb", k12, "--pattern", "K3", "--family", str(family),
                "--w=" + w, "--out", str(out)]
        assert main(argv) == 2, w
        err = capsys.readouterr().err
        assert bad in err and "Traceback" not in err
    assert not out.exists()


def test_absorb_family_nested_too_deep_exits_2(tmp_path, capsys):
    # deeper than the JSON decoder follows: an input error, as for graph files
    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["absorb", k12, "--pattern", "K3", "--family", str(deep),
                 "--w", "0,1,2"]) == 2
    err = capsys.readouterr().err
    assert "input error: bad family file:" in err and "Traceback" not in err


def test_absorb_family_count_too_large_exits_2(tmp_path, capsys):
    # JSON reads 1e400 as inf, which no integer count can hold
    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    fam = tmp_path / "fam.json"
    fam.write_text('{"gadgets": [{"verts": [3, 4, 5, 6, 7], "pairs_checked": 1e400}]}')
    assert main(["absorb", k12, "--pattern", "K3", "--family", str(fam),
                 "--w", "0,1,2"]) == 2
    err = capsys.readouterr().err
    assert "input error: bad family file:" in err and "Traceback" not in err


def test_pipeline_command(tmp_path):
    k24 = write_graph(tmp_path, "k24.json", complete_graph(24))
    out = tmp_path / "pipe.json"
    assert main(["pipeline", k24, "--pattern", "K3", "--seed", "3",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert sum(len(p) for p in obj["parts"]) == 24

    k7 = write_graph(tmp_path, "k7.json", complete_graph(7))
    assert main(["pipeline", k7, "--pattern", "K3", "--quiet"]) == 3


def test_certify_command(tmp_path):
    star = write_graph(tmp_path, "star.json", complete_multipartite(3, 1))
    assert main(["certify", star, "--pattern", "K3", "--vertex", "3",
                 "--quiet"]) == 0
    k6 = write_graph(tmp_path, "k6.json", complete_graph(6))
    assert main(["certify", k6, "--pattern", "K3", "--vertex", "0",
                 "--quiet"]) == 1


def test_experiment_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["experiment", "--sampler", "gnp-min-degree", "--n", "6", "--r", "3",
            "--p", "0.75", "--pattern", "K3", "--trials", "10", "--seed", "42",
            "--quiet"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "trial,n,m,attempts,conditions,verdict,nodes,violation"
    assert lines[-1].startswith("summary,trials=10,found=10,none=0")
    # a different seed changes the file
    c = tmp_path / "c.csv"
    assert main(["experiment", "--sampler", "gnp-min-degree", "--n", "6",
                 "--r", "3", "--p", "0.75", "--pattern", "K3", "--trials",
                 "10", "--seed", "43", "--quiet", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "sampler, n, gamma, p, pattern, summary, digest",
    [
        ("gnp-min-degree", 24, "0", 0.8, "K3",
         "found=60,none=0,exhausted=0,attempts=223,accept-rate=0.2691,",
         "f48cbc4528723f262510c0633969948c942f47ceaccee9ec8ff5385548d277fd"),
        ("gnp-margin", 24, "1/20", 0.75, "K3",
         "found=60,none=0,exhausted=0,attempts=244,accept-rate=0.2459,",
         "135b1946cd1626349f00a62586af6fd4e3bc81de5b47ad6c90fcafb26026fc85"),
        ("gnp-dominant", 15, "0", 0.7, "T3",
         "found=60,none=0,exhausted=0,attempts=60,accept-rate=1.0000,",
         "ba85f6f303ece7be334c733b01405626b393bc79b8560f5302313899ac19df5e"),
    ],
)
def test_experiment_bytes_are_pinned(sampler, n, gamma, p, pattern, summary, digest):
    """The benchmark's three experiment specs at seed 1, 60 trials: the CSV
    bytes, pinned, so a faster sampler or check must draw and decide the
    same hosts.  Each trial draws all its attempts from one generator,
    seeded by ``split_seed(seed, trial)``; a change to that derivation or
    to the order of the draws redraws every host and re-pins them."""
    import hashlib

    from tilinglab.cli import experiment_csv

    text = experiment_csv(dict(sampler=sampler, n=n, r=3, gamma=gamma, p=p,
                               pattern=pattern, trials=60, seed=1))
    assert text.strip().split("\n")[-1] == "summary,trials=60," + summary
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_experiment_r2_matchings(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["experiment", "--sampler", "gnp-exact", "--n", "8", "--r", "2",
                 "--p", "0.55", "--pattern", "K2", "--trials", "25",
                 "--seed", "7", "--quiet", "--out", str(out)]) == 0
    assert "found=25,none=0" in out.read_text()


HOSTILE_GRAPH_FILES = {
    # UTF-16 with its byte-order mark, not UTF-8
    "utf16.json": '\ufeff{"kind": "graph", "n": 3, "edges": []}'.encode("utf-16-le"),
    # vertex counts no list can index, refused before anything is allocated
    "huge.json": b'{"kind": "graph", "n": 1000000000000000000000000000000, "edges": []}',
    "huge.txt": b"1000000000000000000000000000000 0 graph\n",
    # a count that fits an index, but whose row list would need more bytes than
    # an index can count: refused before anything is allocated
    "rows.json": b'{"kind": "graph", "n": 2000000000000000000, "edges": []}',
    # more digits than int() reads, and deeper nesting than the JSON decoder follows
    "digits.json": b'{"kind": "graph", "n": ' + b"1" * 5000 + b', "edges": []}',
    "deep.json": b'{"kind": "graph", "n": 3, "edges": ' + b"[" * 100000 + b"}",
}


@pytest.mark.parametrize("name", HOSTILE_GRAPH_FILES)
def test_hostile_graph_files_exit_2(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(HOSTILE_GRAPH_FILES[name])
    assert main(["pack", str(path), "--pattern", "K3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("bom.json", '{"kind": "graph", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'),
        ("bom.txt", "3 3 graph\n0 1\n1 2\n0 2\n"),
    ],
)
def test_graph_file_with_byte_order_mark_loads(tmp_path, capsys, name, text):
    # a UTF-8 byte-order mark used to send a JSON file to the edge-list parser
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    out = tmp_path / "p.json"
    assert main(["pack", str(path), "--pattern", "K3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parts"] == [[0, 1, 2]]
    assert capsys.readouterr().err == ""


def test_edge_list_input(tmp_path):
    from tilinglab.graphs import format_edge_list

    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(complete_graph(6)))
    assert main(["check", str(path), "--condition", "exact", "--r", "3",
                 "--quiet"]) == 0


def test_experiment_violation_column(tmp_path):
    # conditions about matchings, pattern K4: misses get dumped verbatim
    out = tmp_path / "v.csv"
    main(["experiment", "--sampler", "gnp-min-degree", "--n", "8", "--r", "2",
          "--p", "0.6", "--pattern", "K4", "--trials", "6", "--seed", "3",
          "--quiet", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    body = [ln for ln in lines[1:] if not ln.startswith("summary")]
    nones = [ln for ln in body if ",none," in ln]
    assert nones, "expected at least one miss at these parameters"
    assert all(ln.split(",")[-1].count("-") > 5 for ln in nones)


def test_experiment_parallel_matches_serial(tmp_path):
    from tilinglab.cli import experiment_csv

    spec = {
        "sampler": "gnp-min-degree", "n": 6, "r": 3, "gamma": "0", "p": 0.75,
        "pattern": "K3", "trials": 12, "seed": 5,
        "budget_nodes": 10_000_000, "max_attempts": 100_000,
    }
    assert experiment_csv(spec, jobs=1) == experiment_csv(spec, jobs=2)
    # the benchmark's first spec at seed 1, whose trials take many attempts
    spec = dict(sampler="gnp-min-degree", n=24, r=3, gamma="0", p=0.8, pattern="K3",
                trials=60, seed=1)
    assert experiment_csv(spec, jobs=1) == experiment_csv(spec, jobs=2)


def test_experiment_pool_has_at_most_one_process_per_trial(monkeypatch):
    import multiprocessing

    from tilinglab.cli import experiment_csv

    sizes = []

    class InProcessPool:
        """Records its size and runs starmap in this process."""

        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return [func(*a) for a in args]

    spec = {"sampler": "gnp-min-degree", "n": 6, "r": 3, "gamma": "0", "p": 0.75,
            "pattern": "K3", "trials": 3, "seed": 5}
    serial = experiment_csv(spec, jobs=1)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    assert experiment_csv(spec, jobs=8) == serial and sizes == [3]
    assert experiment_csv(dict(spec, trials=1), jobs=8) == experiment_csv(dict(spec, trials=1))
    assert sizes == [3]  # one trial runs in this process, with no pool


def test_experiment_accept_rate_counts_accepted_trials(tmp_path):
    # an edgeless sample never meets the Hajnal-Szemeredi degree, so every
    # trial gives up after its one attempt and none is accepted
    out = tmp_path / "f.csv"
    assert main(["experiment", "--sampler", "gnp-min-degree", "--n", "6", "--p", "0",
                 "--pattern", "K3", "--trials", "2", "--max-attempts", "1", "--quiet",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert all(",sampling-failed," in ln for ln in lines[1:-1])
    assert lines[-1].endswith(",attempts=2,accept-rate=0.0000,")


@pytest.mark.parametrize(
    "sampler, n, r, gamma, pattern",
    [
        ("gnp-min-degree", 2, 3, "0", "K2"),  # t_1 = ceil(4/3) = 2 > d_1 <= 1
        ("gnp-exact", 0, 3, "0", "K3"),  # part (b) reads past the empty sequence
        ("gnp-margin", 6, 3, "1/2", "K3"),
        ("gnp-dominant", 3, 2, "1/2", "T2"),
    ],
)
def test_experiment_impossible_condition_fails_without_sampling(monkeypatch, sampler, n, r,
                                                                 gamma, pattern):
    # even K_n fails these conditions, so no sample can meet them: every trial
    # gives the row that max_attempts rejections give, without drawing a host
    from tilinglab import cli
    from tilinglab.cli import ExperimentSpec, experiment_csv

    def no_sampling(*args):
        raise AssertionError("a host was sampled")

    monkeypatch.setattr(cli, "_sample", no_sampling)
    spec = ExperimentSpec(sampler, n, r, gamma, 0.5, pattern, 3, 1, max_attempts=3000)
    lines = experiment_csv(spec).strip().split("\n")
    assert lines[1:-1] == [f"{t},{n},,3000,sampling-failed,no-instance,0," for t in range(3)]
    assert lines[-1] == ("summary,trials=3,found=0,none=0,exhausted=0,attempts=9000,"
                         "accept-rate=0.0000,")
    # a spec that K_n meets still samples
    feasible = ExperimentSpec(sampler, n + r, r, "0", 0.5, pattern, 3, 1, max_attempts=3000)
    with pytest.raises(AssertionError, match="a host was sampled"):
        experiment_csv(feasible)


def test_experiment_dominant_sampler(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["experiment", "--sampler", "gnp-dominant", "--n", "6",
                 "--r", "3", "--gamma", "1/10", "--p", "0.8", "--pattern",
                 "T3", "--trials", "8", "--seed", "9", "--quiet",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "found=8" in text


@pytest.mark.parametrize(
    "sampler, gamma, p, pattern",
    [
        ("gnp-min-degree", "0", 0.85, "K3"),
        ("gnp-exact", "0", 0.75, "K3"),
        ("gnp-margin", "1/24", 0.8, "K3"),
        ("gnp-dominant", "1/24", 0.7, "T3"),
    ],
)
def test_experiment_accepts_exactly_the_hosts_meeting_the_condition(sampler, gamma, p, pattern):
    # one attempt per trial, at densities where about half the hosts meet
    # the condition: the experiment's accept decision, read off the CSV,
    # must be the report's on the very host the trial drew
    from tilinglab.cli import _SAMPLERS, ExperimentSpec, _sample, experiment_csv
    from tilinglab.util import split_seed

    spec = ExperimentSpec(sampler, 12, 3, gamma, p, pattern, 200, 11, max_attempts=1)
    kind, name = _SAMPLERS[sampler]
    condition = degseq.DegreeCondition(name, 3, as_fraction(gamma))
    rows = experiment_csv(spec).strip().split("\n")[1:-1]
    accepted = []
    for trial, row in enumerate(rows):
        g = _sample(random.Random(split_seed(spec.seed, trial)), kind, 12, p)
        _, _, m, _, conditions, *_ = row.split(",")
        assert conditions in ("satisfied", "sampling-failed")
        accepted.append(conditions == "satisfied")
        assert accepted[-1] == degseq.evaluate(condition, g).satisfied, trial
        assert m == (str(g.edge_count()) if accepted[-1] else "")
    assert len(accepted) == 200 and 50 <= sum(accepted) <= 150


def test_improve_with_blowup_rounds(tmp_path):
    from tilinglab.constructions import transitive_tournament
    from tilinglab.graphs import Digraph, graph_to_json as to_json

    # vertex 7 has no arcs, so coverage stays short and blow-up rounds fire
    d = Digraph(8, list(transitive_tournament(7).arcs))
    path = tmp_path / "t7.json"
    path.write_text(to_json(d))
    out = tmp_path / "z.csv"
    assert main(["improve", str(path), "--r", "3", "--gamma", "1/20",
                 "--z", "2", "--quiet", "--out", str(out)]) == 0
    text = out.read_text()
    assert "blowup" in text


@pytest.mark.parametrize(
    "seed, n, p, r, z, policy, budget, code, stdout, digest",
    [
        (11, 11, 0.49, 3, 3, "greedy", None, 0, "294/297",
         "5b29b4353cb965cfb884c8c1ace374bdac21966c03a61df7e6a8272ce3323d74"),
        (29, 15, 0.52, 3, 2, "auto", None, 0, "15/15",
         "03035777d6d0b6dcef179e60418235a1d6d0d8c4e2df193857bdcf11fc649b65"),
        (32, 12, 0.71, 3, 3, "max", None, 0, "12/12",
         "3ab7c78f31a843aa8cdb22694ac863493c24b29e76beb0704c7921956d6502ba"),
        (26, 6, 0.88, 3, 3, "auto", None, 0, "6/6",
         "c9c5ddebd8b9830b857de877a782cbad2481c124fbf6b7177083212eae519eb5"),
        (4, 12, 0.41, 3, 1, "greedy", None, 0, "30/36",
         "a120b6f2f1aabf2bf1afecf3b7151162119a5d2487ccff7bed34cab6464eb223"),
        (21, 14, 0.63, 3, 1, "max", None, 0, "42/42",
         "f8bc39166f856f240dd7ef7cdb86e51369ad98a1e211371b8742fe7280a2755b"),
        (33, 16, 0.47, 3, 2, "auto", None, 0, "48/48",
         "ef8774fcb2f60295d57167e58553f1dd5358938111dc88543ee2935dc1c82b87"),
        (14, 14, 0.35, 3, 0, "auto", None, 0, "12/14",
         "a9c70a98d2ae9b58c3d69c38df6c2052ad535be39084c885c858f19308a27f85"),
        (10, 16, 0.68, 4, 2, "greedy", None, 0, "256/256",
         "4bc3263c257ff3b1e7ce329fb955ecdedfdb39a9a1a1a9f87fc749ab33ec2e12"),
        (24, 18, 0.36, 2, 3, "greedy", None, 0, "143/144",
         "36e3fc15ebc6eea415dad66f920543e7a6059fecfff078e5f9b6b061a5d3abf6"),
        (8, 14, 0.88, 3, 0, "max", None, 0, "14/14",
         "754993f8fffe118aa395b01d1cd1d97bb897fe18ba90d25d9e7b8ca7f83f40bd"),
        (2, 14, 0.68, 4, 1, "auto", None, 0, "14/14",
         "84d1f55bc8597c7a9d2d8c37c11bf90ee37afc77fa5617b1607ffaaf33e34149"),
        (13, 13, 0.77, 3, 1, "max", 5, 4, "13/13",
         "28ca8caccff2a9ee65f8bfcf855e4a2a9bd6db66bf966a8fc524862b7c386479"),
    ],
)
def test_improve_output_is_pinned(tmp_path, capsys, seed, n, p, r, z, policy, budget,
                                  code, stdout, digest):
    """Seeded digraphs through `improve` at every seed policy, with and
    without blow-up rounds: the exit code, the stdout line and the trace CSV
    bytes, pinned, so a rewrite of the exchange or the expansion loop must
    take the same steps."""
    import hashlib

    from oracles import sample_digraph

    path = write_graph(tmp_path, "d.json", sample_digraph(random.Random(seed), n, p))
    out = tmp_path / "trace.csv"
    argv = ["improve", path, "--r", str(r), "--gamma", "1/20", "--z", str(z),
            "--seed-policy", policy, "--out", str(out)]
    if budget is not None:
        argv += ["--budget-nodes", str(budget)]
    assert main(argv) == code
    assert capsys.readouterr().out == f"final coverage {stdout}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_pack_digraph_pattern(tmp_path):
    t32 = tmp_path / "t32.json"
    assert main(["gen", "tr-power", "--r", "3", "--t", "2",
                 "--out", str(t32)]) == 0
    out = tmp_path / "tp.json"
    assert main(["pack", str(t32), "--pattern", "T3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["pattern"] == "T3" and len(obj["parts"]) == 2


def test_experiment_spec_validation():
    from tilinglab.cli import ExperimentSpec, experiment_csv

    with pytest.raises(ValueError, match="trial count"):
        ExperimentSpec("gnp", 6, 3, "0", 0.5, "K3", 0, 1)
    with pytest.raises(ValueError, match="sampler"):
        ExperimentSpec("warp", 6, 3, "0", 0.5, "K3", 5, 1)
    with pytest.raises(ValueError, match="node budget"):
        ExperimentSpec("gnp", 6, 3, "0", 0.5, "K3", 5, 1, budget_nodes=0)
    with pytest.raises(ValueError, match="max attempts"):
        ExperimentSpec("gnp", 6, 3, "0", 0.5, "K3", 5, 1, max_attempts=0)
    spec = ExperimentSpec("gnp-min-degree", 6, 3, "0", 0.75, "K3", 5, 9)
    assert experiment_csv(spec) == experiment_csv(asdict(spec))
    assert main(["experiment", "--sampler", "warp", "--n", "6", "--pattern",
                 "K3", "--trials", "2", "--quiet"]) == 2


@pytest.mark.parametrize("value", ["0", "-1", "-5", "2.5", "many"])
def test_budget_nodes_must_be_positive(tmp_path, capsys, value):
    # 0 used to mean "no budget" for pack and 10,000,000 for experiment, and
    # a negative budget reported every experiment trial exhausted, exit 0
    k6 = write_graph(tmp_path, "k6.json", complete_graph(6))
    out = tmp_path / "never.csv"
    for argv in (
        ["pack", k6, "--pattern", "K3"],
        ["experiment", "--sampler", "gnp-min-degree", "--n", "6", "--r", "3",
         "--p", "0.75", "--pattern", "K3", "--trials", "2", "--out", str(out)],
    ):
        assert main(argv + ["--budget-nodes", value]) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("argument --budget-nodes") == 2
    assert "Traceback" not in captured.err


def test_experiment_default_budget(tmp_path):
    # without the option an experiment keeps its 10,000,000-node budget
    argv = ["experiment", "--sampler", "gnp-min-degree", "--n", "6", "--r", "3",
            "--p", "0.75", "--pattern", "K3", "--trials", "3", "--quiet"]
    default, explicit, tight = (tmp_path / f"{name}.csv" for name in ("d", "e", "t"))
    assert main(argv + ["--out", str(default)]) == 0
    assert main(argv + ["--budget-nodes", "10000000", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert "summary,trials=3,found=3,none=0,exhausted=0," in default.read_text()
    # every trial out of budget: exit code 4, as for any other command
    assert main(argv + ["--budget-nodes", "1", "--out", str(tight)]) == 4
    assert "summary,trials=3,found=0,none=0,exhausted=3," in tight.read_text()


def test_gen_missing_n_is_input_error(tmp_path, capsys):
    assert main(["gen", "hs-tight", "--r", "3", "--quiet"]) == 2
    assert main(["gen", "extremal-square", "--r", "3", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "input error: hs-tight needs --n\ninput error: extremal-square needs --n\n"
    )


def test_unwritable_out_is_input_error(tmp_path, capsys):
    """Every subcommand that writes answers an --out in a missing directory
    with exit 2 and one input-error line, and writes its output otherwise."""
    from tilinglab.constructions import transitive_tournament

    k12 = write_graph(tmp_path, "k12.json", complete_graph(12))
    t6 = write_graph(tmp_path, "t6.json", transitive_tournament(6))
    fam = tmp_path / "fam.json"
    build_family = ["absorbfam", k12, "--pattern", "K3", "--seed", "5",
                    "--sample-size", "80", "--max-gadgets", "3"]
    assert main(build_family + ["--out", str(fam)]) == 0
    w = sorted(set(range(12)) - set(json.loads(fam.read_text())["M"]))[:3]
    writers = [
        ["gen", "tr", "--r", "3"],
        ["check", k12, "--r", "3", "--format", "json"],
        ["pack", k12, "--pattern", "K3"],
        ["maxpack", k12, "--pattern", "K3"],
        ["improve", t6, "--r", "3"],
        ["path", k12, "--pattern", "K3", "--x", "0", "--y", "11", "--t", "2"],
        build_family,
        ["absorb", k12, "--pattern", "K3", "--family", str(fam), "--w", ",".join(map(str, w))],
        ["pipeline", k12, "--pattern", "K3", "--seed", "3"],
        ["experiment", "--n", "6", "--pattern", "K3", "--trials", "2", "--seed", "1"],
    ]
    missing = tmp_path / "missing" / "x"
    for argv in writers:
        assert main(argv + ["--quiet", "--out", str(missing)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err, argv
        assert str(missing) in err, argv
        out = tmp_path / "out"
        assert main(argv + ["--quiet", "--out", str(out)]) == 0, argv
        assert out.read_text(), argv
        out.unlink()
    assert not missing.parent.exists()


def test_gen_hs_tight(tmp_path):
    out = tmp_path / "hs.json"
    assert main(["gen", "hs-tight", "--r", "3", "--n", "9", "--out",
                 str(out)]) == 0
    g = graph_from_json(out.read_text())
    assert min(g.degree(v) for v in range(9)) == 5  # one below 2n/3


def test_certify_and_path_input_errors(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["gen", "kr-power", "--r", "3", "--t", "3", "--out", str(out)]) == 0
    k = str(out)
    assert main(["pack", k, "--pattern", "K3", "--quiet",
                 "--out", str(tmp_path / "p.json")]) == 0
    # vertices outside the 9-vertex host are input errors, never certificates
    assert main(["certify", k, "--pattern", "K3", "--vertex", "9"]) == 2
    assert main(["certify", k, "--pattern", "K3", "--vertex", "-1"]) == 2
    assert main(["path", k, "--pattern", "K3", "--x", "0", "--y", "0", "--t", "1"]) == 2
    assert main(["path", k, "--pattern", "K3", "--x", "0", "--y", "1", "--t", "0"]) == 2
    assert main(["path", k, "--pattern", "K3", "--x", "9", "--y", "0", "--t", "1"]) == 2
    assert main(["path", k, "--pattern", "K3", "--x", "-1", "--y", "0", "--t", "1"]) == 2
    assert main(["path", k, "--pattern", "K3", "--x", "0", "--y", "9", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert "NONE-FOUND" not in captured.out
    assert "no connecting path" not in captured.out + captured.err
    assert captured.err.count("input error") == 7


def test_pattern_kind_mismatch_is_input_error(tmp_path, capsys):
    from tilinglab.cli import ExperimentSpec
    from tilinglab.constructions import transitive_tournament

    k6 = write_graph(tmp_path, "k6.json", complete_graph(6))
    t6 = write_graph(tmp_path, "t6.json", transitive_tournament(6))
    fam = tmp_path / "fam.json"
    fam.write_text('{"gadgets": []}')
    for host, pattern in ((k6, "T3"), (t6, "K3")):
        for extra in (
            ["pack"], ["maxpack"], ["pipeline"], ["absorbfam"],
            ["certify", "--vertex", "0"],
            ["path", "--x", "0", "--y", "1", "--t", "1"],
            ["absorb", "--family", str(fam)],
        ):
            argv = [extra[0], host, "--pattern", pattern, *extra[1:], "--quiet"]
            assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.count("input error") == 14 and "Traceback" not in err
    # experiments refuse before sampling anything
    base = ["experiment", "--n", "6", "--r", "3", "--trials", "2", "--quiet"]
    for sampler, pattern in (("gnp-dominant", "K3"), ("gnp", "T3"), ("gnp", "Q7")):
        assert main(base + ["--sampler", sampler, "--pattern", pattern]) == 2
    assert capsys.readouterr().err.count("input error") == 3
    with pytest.raises(ValueError, match="needs a digraph sampler"):
        ExperimentSpec("gnp-margin", 6, 3, "0", 0.5, "T3", 5, 1)
    with pytest.raises(ValueError, match="cannot parse"):
        ExperimentSpec("gnp", 6, 3, "0", 0.5, "Q7", 5, 1)


# each subcommand with its required arguments, and the shared flags it does
# not read; argparse stops before any file is opened
_SUBCOMMANDS = {
    "gen": (["gen", "tr"], ("--seed", "--budget-nodes", "--format")),
    "check": (["check", "g.json", "--r", "3"], ("--seed", "--budget-nodes")),
    "pack": (["pack", "g.json", "--pattern", "K3"], ("--seed", "--format")),
    "maxpack": (["maxpack", "g.json", "--pattern", "K3"], ("--seed", "--format")),
    "improve": (["improve", "d.json", "--r", "3"], ("--seed", "--format")),
    "path": (["path", "g.json", "--pattern", "K3", "--x", "0", "--y", "1", "--t", "1"],
             ("--seed", "--budget-nodes", "--format")),
    "absorbfam": (["absorbfam", "g.json", "--pattern", "K3"], ("--budget-nodes", "--format")),
    "absorb": (["absorb", "g.json", "--pattern", "K3", "--family", "f.json"],
               ("--seed", "--budget-nodes", "--format")),
    "pipeline": (["pipeline", "g.json", "--pattern", "K3"], ("--budget-nodes", "--format")),
    "certify": (["certify", "g.json", "--pattern", "K3", "--vertex", "0"],
                ("--seed", "--budget-nodes", "--format", "--out")),
    "experiment": (["experiment", "--n", "6", "--pattern", "K3", "--trials", "1"], ("--format",)),
}
_FLAG_VALUES = {"--seed": "1", "--budget-nodes": "5", "--format": "csv", "--out": "o.txt"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in _SUBCOMMANDS.items() for flag in flags
])
def test_unread_shared_flags_are_refused(capsys, command, flag):
    argv = _SUBCOMMANDS[command][0] + [flag, _FLAG_VALUES[flag], "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {_FLAG_VALUES[flag]}" in err


@pytest.mark.parametrize("argv", [
    ["improve", "d.json", "--r", "3", "--eta", "1/12"],
    ["absorbfam", "g.json", "--pattern", "K3", "--pair-threshold", "1"],
    ["pipeline", "g.json", "--pattern", "K3", "--pair-threshold", "1"],
])
def test_removed_flags_are_refused(capsys, argv):
    # the expectation flag of improve and the gadget pair threshold are gone;
    # argparse stops before any file is opened
    assert main(argv + ["--quiet"]) == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "G", "--r", "3", "--gamma", "abc"],
    ["check", "G", "--r", "3", "--gamma", "1/0"],
    ["improve", "D", "--r", "3", "--gamma", "abc"],
    ["improve", "D", "--r", "0"],
    ["improve", "D", "--r", "3", "--z", "-1"],
    ["experiment", "--n", "6", "--pattern", "K3", "--trials", "1", "--gamma", "abc"],
    # conditioned samplers refuse specs that can never run, before sampling
    ["experiment", "--sampler", "gnp-margin", "--n", "6", "--r", "1", "--pattern", "K2",
     "--trials", "1"],
    ["experiment", "--sampler", "gnp-min-degree", "--n", "6", "--r", "1", "--pattern", "K2",
     "--trials", "1"],
    ["experiment", "--sampler", "gnp-dominant", "--n", "6", "--r", "1", "--pattern", "T3",
     "--trials", "1"],
    ["experiment", "--sampler", "gnp-margin", "--n", "6", "--gamma=-1/20", "--pattern", "K3",
     "--trials", "1"],
    ["experiment", "--sampler", "gnp-exact", "--n", "7", "--r", "3", "--pattern", "K3",
     "--trials", "1"],
    ["experiment", "--n", "6", "--pattern", "K3", "--trials", "1", "--max-attempts", "0"],
    # the absorbing-family builder refuses counts below 1
    ["absorbfam", "G", "--pattern", "K3", "--t", "0"],
    ["absorbfam", "G", "--pattern", "K3", "--sample-size", "-1"],
    ["absorbfam", "G", "--pattern", "K3", "--max-gadgets", "0"],
    ["pipeline", "G", "--pattern", "K3", "--t", "0"],
    ["pipeline", "G", "--pattern", "K3", "--sample-size", "0"],
    ["pipeline", "G", "--pattern", "K3", "--max-gadgets", "-1"],
    # ... before the divisibility check: 3 does not divide 7
    ["pipeline", "G7", "--pattern", "K3", "--max-gadgets", "-1"],
    # a negative order is refused before sampling, under every sampler
    ["experiment", "--sampler", "gnp-margin", "--n", "-1", "--pattern", "K3", "--trials", "2",
     "--seed", "1"],
    ["experiment", "--sampler", "gnp", "--n", "-1", "--pattern", "K3", "--trials", "2",
     "--seed", "1"],
    ["experiment", "--sampler", "gnp-exact", "--n", "-3", "--pattern", "K3", "--trials", "2",
     "--seed", "1"],
    # one-vertex gadgets can never absorb a vertex into a K3 packing
    ["absorb", "G9", "--pattern", "K3", "--family", "F1", "--w", "3,4,5"],
    # a density outside [0, 1] and a job count below 1
    ["experiment", "--sampler", "gnp", "--n", "12", "--p", "1.5", "--pattern", "K3",
     "--trials", "3", "--seed", "1"],
    ["experiment", "--sampler", "gnp", "--n", "12", "--p", "-2", "--pattern", "K3",
     "--trials", "3", "--seed", "1"],
    ["experiment", "--sampler", "gnp", "--n", "12", "--pattern", "K3", "--trials", "3",
     "--seed", "1", "--jobs", "-4"],
])
def test_hostile_inputs_exit_2(tmp_path, capsys, argv):
    from tilinglab.constructions import transitive_tournament

    singletons = {"gadgets": [{"verts": [v], "pairs_checked": 1} for v in range(3)]}
    (tmp_path / "f1.json").write_text(json.dumps(singletons))
    files = {"G": write_graph(tmp_path, "g.json", complete_graph(6)),
             "G7": write_graph(tmp_path, "g7.json", complete_graph(7)),
             "G9": write_graph(tmp_path, "g9.json", complete_graph(9)),
             "D": write_graph(tmp_path, "d.json", transitive_tournament(6)),
             "F1": str(tmp_path / "f1.json")}
    assert main([files.get(a, a) for a in argv] + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err


def test_experiment_spec_refusals():
    from tilinglab.cli import ExperimentSpec

    with pytest.raises(ValueError, match="r >= 2 required"):
        ExperimentSpec("gnp-margin", 6, 1, "0", 0.5, "K2", 5, 1)
    with pytest.raises(ValueError, match="gamma >= 0 required"):
        ExperimentSpec("gnp-dominant", 6, 3, "-1/20", 0.5, "T3", 5, 1)
    with pytest.raises(ValueError, match="divisibility violated: r=3 must divide n=7"):
        ExperimentSpec("gnp-exact", 7, 3, "0", 0.5, "K3", 5, 1)
    with pytest.raises(ValueError, match="vertex count -3 is not a nonnegative integer"):
        ExperimentSpec("gnp-exact", -3, 3, "0", 0.5, "K3", 5, 1)
    with pytest.raises(ValueError, match=r"density 1.01 is not in \[0, 1\]"):
        ExperimentSpec("gnp", 6, 3, "0", 1.01, "K3", 5, 1)
    # the empty host is a valid order, and 0 and 1 are valid densities
    ExperimentSpec("gnp", 0, 3, "0", 0.5, "K3", 5, 1)
    ExperimentSpec("gnp", 6, 3, "0", 0.0, "K3", 5, 1)
    ExperimentSpec("gnp", 6, 3, "0", 1.0, "K3", 5, 1)
    # the unconditioned sampler reads neither r nor gamma
    ExperimentSpec("gnp", 7, 1, "-1/20", 0.5, "K3", 5, 1)
    # dict specs are checked the same way
    from tilinglab.cli import experiment_csv

    spec = {"sampler": "gnp-exact", "n": 7, "r": 3, "gamma": "0", "p": 0.5,
            "pattern": "K3", "trials": 5, "seed": 1}
    with pytest.raises(ValueError, match="divisibility"):
        experiment_csv(spec)


def test_experiment_density_one_samples_complete_hosts(capsys):
    # the density schedule caps p at 0.98 only when p itself is lower
    argv = ["experiment", "--sampler", "gnp", "--n", "12", "--p", "1.0", "--pattern", "K3",
            "--trials", "3", "--seed", "1"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [row[2] for row in rows if row[0].isdigit()] == ["66"] * 3


def test_check_accepts_table_names_and_aliases(tmp_path, capsys):
    from tilinglab.constructions import transitive_tournament

    g = write_graph(tmp_path, "g.json", complete_graph(6))
    d = write_graph(tmp_path, "d.json", transitive_tournament(6))
    for host, short, name in ((g, "hs", "hajnal-szemeredi"), (g, "ay", "alon-yuster"),
                              (d, "dominant", "dominant-margin")):
        outs = []
        for cond in (short, name):
            main(["check", host, "--condition", cond, "--r", "3", "--format", "json"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])
    assert main(["check", d, "--condition", "exact", "--r", "3", "--quiet"]) == 2
    assert main(["check", g, "--condition", "dominant", "--r", "3", "--quiet"]) == 2
    assert main(["check", g, "--condition", "nope", "--r", "3", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: condition exact needs a graph\n"
                   "input error: condition dominant-margin needs a digraph\n"
                   "input error: unknown condition name 'nope'\n")
