"""The README's "Results snapshot" figures, recomputed at their printed precision.

N = S = 64, defaults, master seed 0, 10 replicates per point: shortest-path
hop means from the ``scaling`` sweep at size 64, and the wandering-hop
penalty of 40 deleted switch links from the ``robustness`` sweep.  The gossip
convergence figures stay untested here: ten 4,000-step sync replicates per
family cost about as much as acceptance criterion 9, until the sync task runs
a family's replicates as lanes of one simulation.
"""

from multitude_sim import FAMILIES, RM_FAMILIES
from multitude_sim.harness import ExperimentSpec, run_experiment

SEEDS = 10


def _means(experiment, value_col, sweep_values):
    spec = ExperimentSpec(experiment, sweep_values=sweep_values, seeds_per_point=SEEDS, master_seed=0)
    means = {}
    for line in run_experiment(spec).splitlines()[1:]:
        fields = line.split(",")
        if fields[2] == "mean":
            means[fields[0], int(fields[1])] = float(fields[value_col])
    return means


def test_readme_hop_means():
    hops = _means("scaling", 3, (64,))
    assert f"{hops['2DCA', 64]:.2f}" == "6.33"
    assert f"{hops['3DCA', 64]:.2f}" == "4.81"
    assert all(3.4 <= round(hops[family, 64], 1) <= 3.6 for family in RM_FAMILIES)


def test_readme_wandering_penalties_after_40_deletions():
    hops = _means("robustness", 8, (0, 40))
    penalty = {family: f"{hops[family, 40] / hops[family, 0] - 1:+.0%}" for family in FAMILIES}
    assert penalty == {
        "2DCA": "+87%",
        "3DCA": "+36%",
        "3DRMStandard": "+7%",
        "3DRMGlobal": "+14%",
        "3DRMRealistic": "+17%",
        "3DRMLocal": "+19%",
    }
