"""The record types: immutable, compared and hashed by value, and cheap to
import (no ``dataclasses``, so no ``inspect``, ``ast``, ``dis`` or
``tokenize``)."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from tilinglab import absorbing, cli, constructions, degseq, exchange, graphs, packing
from tilinglab.cli import main
from tilinglab.constructions import clique_pattern, complete_graph, transitive_tournament

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _packing():
    return packing.Packing(3, ((0, 1, 2),), (clique_pattern(3),))


def _params():
    return constructions.ExtremalParams(3, (1, 1, 1), 12, 0, (2, 2))


# each record with a builder of one sample; two calls give equal, distinct
# objects.  A record with a dict or list field is unhashable, like a tuple
# holding one.
RECORDS = [
    (graphs.TwinClasses,
     lambda: graphs.TwinClasses(((0,), (1, 2)), ((3, 3), (3, 0)), ((1, 2),)), True),
    (packing.Packing, _packing, True),
    (packing.VerifyResult, lambda: packing.VerifyResult(False, "overlap"), True),
    (packing.MaxPackingResult, lambda: packing.MaxPackingResult(_packing(), True, 4), True),
    (degseq.DegreeCondition, lambda: degseq.DegreeCondition("margin", 3, Fraction(1, 20)), True),
    (degseq.ConditionReport,
     lambda: degseq.ConditionReport("exact", True, slack_profile=(Fraction(1, 2),)), True),
    (constructions.ExtremalParams, _params, True),
    (constructions.ExtremalInstance,
     lambda: constructions.ExtremalInstance(complete_graph(3), 0, ((0,), (1, 2)), ((1, 2),),
                                            _params()), True),
    (constructions.UncoverableResult,
     lambda: constructions.UncoverableResult(0, "K3", False, (0, 1, 2)), True),
    (exchange.ConsistentCopy, lambda: exchange.ConsistentCopy((0, 1, 2), 1, Fraction(4, 3)), True),
    (exchange.IndexBijection, lambda: exchange.IndexBijection((2, 0, 1), (2, 3, 1)), True),
    (exchange.TraceRow, lambda: exchange.TraceRow(0, "seed", 3, 3), True),
    (exchange.BlowupResult,
     lambda: exchange.BlowupResult(transitive_tournament(3), _packing(), [Fraction(1)],
                                   [exchange.TraceRow(0, "seed", 3, 3)], None), False),
    (absorbing.HPath, lambda: absorbing.HPath(clique_pattern(3), ((1, 2),), (0, 3)), True),
    (absorbing.StarBlowup,
     lambda: absorbing.StarBlowup(complete_graph(3), 3, 1, 1, ((1, 2),), ((0,), ()), True), True),
    (absorbing.AbsorbingGadget, lambda: absorbing.AbsorbingGadget((0, 1, 2), 7), True),
    (absorbing.AbsorbingFamily,
     lambda: absorbing.AbsorbingFamily((absorbing.AbsorbingGadget((0, 1, 2), 7),),
                                       {"pattern": "K3"}, 1), False),
    (absorbing.PipelineResult,
     lambda: absorbing.PipelineResult(True, _packing(), None, {"absorbed": 0}), False),
    (cli.ExperimentSpec,
     lambda: cli.ExperimentSpec("gnp-min-degree", 6, 3, "0", 0.75, "K3", 5, 9), True),
]


@pytest.mark.parametrize("cls, build, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_value(cls, build, hashable):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], getattr(b, cls._fields[0]))
    assert a == b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")


def test_validating_records_validate_on_replace():
    cond = degseq.DegreeCondition("margin", 3)
    assert cond._replace(r=4) == ("margin", 4, Fraction(0))
    with pytest.raises(ValueError, match="r >= 2"):
        cond._replace(r=1)
    spec = cli.ExperimentSpec("gnp-min-degree", 6, 3, "0", 0.75, "K3", 5, 9)
    bigger = cli.ExperimentSpec("gnp-min-degree", 9, 3, "0", 0.75, "K3", 5, 9)
    assert spec._replace(n=9)._thresholds == bigger._thresholds != spec._thresholds
    with pytest.raises(ValueError, match="trial count"):
        spec._replace(trials=0)


def test_experiment_spec_keeps_its_derived_values_through_pickle():
    spec = cli.ExperimentSpec("gnp-min-degree", 6, 3, "0", 0.75, "K3", 5, 9)
    copy = pickle.loads(pickle.dumps(spec))
    assert type(copy) is cli.ExperimentSpec and copy == spec
    assert copy._thresholds == spec._thresholds and copy._thresholds is not None
    assert copy._feasible is spec._feasible is True
    assert copy._pattern == spec._pattern


def test_experiment_jobs_2_matches_jobs_1(tmp_path):
    # a real multiprocessing pool, which pickles the spec for its workers
    argv = ["experiment", "--sampler", "gnp-min-degree", "--n", "9", "--r", "3",
            "--p", "0.7", "--pattern", "K3", "--trials", "4", "--seed", "3", "--quiet"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(argv + ["--jobs", "1", "--out", str(one)]) == 0
    assert main(argv + ["--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_import_loads_no_dataclasses():
    # pytest itself loads dataclasses, so the import runs in a fresh process;
    # -S keeps site hooks from loading anything first
    code = (
        "import sys, tilinglab, tilinglab.cli\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "[]\n"
