"""Seed derivation: `split_seed` children are distinct, and experiments at
different master seeds sample different hosts."""

import pytest

from tilinglab.cli import experiment_csv
from tilinglab.util import split_seed

# the benchmark's experiment specs, at the pinned test's 60 trials
SPECS = [
    ("gnp-min-degree", 24, "0", 0.8, "K3"),
    ("gnp-margin", 24, "1/20", 0.75, "K3"),
    ("gnp-dominant", 15, "0", 0.7, "T3"),
]


def test_split_seed_children_are_pairwise_distinct():
    # a master seed XORed into the first path element would give
    # split_seed(m, t, a) == split_seed(m ^ d, t ^ d, a)
    children = {split_seed(m, t, a) for m in range(64) for t in range(64) for a in range(5)}
    assert len(children) == 64 * 64 * 5


@pytest.mark.parametrize("spec", SPECS, ids=[spec[0] for spec in SPECS])
def test_experiment_seeds_2_and_3_sample_different_hosts(spec):
    # not only in another trial order: the rows without their trial column
    # differ as multisets
    sampler, n, gamma, p, pattern = spec
    two, three = (
        experiment_csv(dict(sampler=sampler, n=n, r=3, gamma=gamma, p=p, pattern=pattern,
                            trials=60, seed=seed)).strip().split("\n")[1:-1]
        for seed in (2, 3)
    )
    assert two != three
    assert sorted(row.split(",", 1)[1] for row in two) != sorted(
        row.split(",", 1)[1] for row in three)

