"""The summary of tools/ab_pairs.py, on canned benchmark result lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "ab_pairs.py")
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
    {"name": "absent", "unit": "s", "better": "lower"},
]


def _stdout(wall_s, rate, correct=True, failed=0):
    """What perfbench/run.py prints: report lines, then its JSON result."""
    result = {
        "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    }
    return f"rounds: 3, wall_s per round: 0.1, 0.1, 0.1\nwall_s = {wall_s} s\n{json.dumps(result)}\n"


def _runs(values, **change_kwargs):
    return [
        (ab_pairs.last_result(_stdout(p, 1 / p)),
         ab_pairs.last_result(_stdout(c, 1 / c, **change_kwargs)))
        for p, c in values
    ]


def test_summary_medians_quartiles_and_wins():
    # parent 1..5: median 3, inclusive quartiles 2 and 4; the change is
    # lower in three pairs, equal in one and higher in one
    runs = _runs([(1.0, 0.5), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5), (5.0, 4.0)])
    rows = {row["name"]: row for row in ab_pairs.summarize(METRICS, runs)}
    assert set(rows) == {"wall_s", "rate"}  # a metric no run reports is left out
    wall = rows["wall_s"]
    assert (wall["parent_median"], wall["parent_q1"], wall["parent_q3"]) == (3.0, 2.0, 4.0)
    assert wall["change_median"] == 2.5
    assert (wall["wins"], wall["pairs"]) == (3, 5)
    # higher is better: the change's rate is higher exactly where its time is lower
    assert (rows["rate"]["wins"], rows["rate"]["pairs"]) == (3, 5)
    line = ab_pairs.format_row(wall)
    assert "parent 3 (quartiles 2-4)" in line and "change 2.5 (-16.67%)" in line
    assert line.endswith("change better in 3 of 5")
    assert ab_pairs.problems("exact", runs) == []


def test_summary_of_one_pair():
    (row, _) = ab_pairs.summarize(METRICS, _runs([(2.0, 1.0)]))
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (2.0, 2.0, 2.0)
    assert row["wins"] == 1


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 3}])
def test_an_incorrect_run_or_failed_operation_is_a_problem(bad):
    runs = _runs([(1.0, 1.0), (2.0, 2.0)], **bad)
    lines = ab_pairs.problems("pipeline", runs)
    assert [line.split(":")[0] for line in lines] == [
        "pipeline pair 0 change", "pipeline pair 1 change"]


def test_a_run_that_did_not_finish_is_a_problem(tmp_path):
    # a tree with no benchmark runner: the run exits nonzero with no result
    result = ab_pairs.run_once(str(tmp_path), "exact", 1, 0.1)
    assert not result["correct"] and result["error"].startswith("exit 2")
    assert ab_pairs.problems("exact", [(result, result)])[0].startswith("exact pair 0 parent: exit 2")
