"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The heavyweight scaling sweep is shared between criteria 3
and 5 through a module fixture, mirroring their shared runtime budget.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from multitude_sim import (
    FAMILIES,
    TopologyConfig,
    build,
    export_edge_list,
    sample_neighbor,
)
from multitude_sim.harness import ExperimentSpec, derive_seed, derive_subseed, run_experiment
from multitude_sim.metrics import average_hops, clustering_coefficient
from multitude_sim.simcore import Routing, SimConfig, Simulation, run_many
from multitude_sim.synctask import run_sync_task
from oracles import UnionFind, pn_hops_oracle


def report(number, name, ok, detail, elapsed, budget):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {state} {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


# -- criterion 1: generation invariants ------------------------------------------


def test_criterion_01_generation_invariants():
    t0 = time.time()
    checked = 0
    for i in range(1000):
        family = FAMILIES[i % len(FAMILIES)]
        seed = derive_seed(0, "acceptance-gen", family, 64, i)
        topo = build(TopologyConfig(family, 64, 64, seed=seed))

        # independent re-check from the serialized form
        node_rows = []
        link_rows = []
        for line in export_edge_list(topo).splitlines()[1:]:
            (node_rows if line.startswith("N ") else link_rows).append(line.split())
        n_switch = sum(1 for row in node_rows if row[2] == "S")
        assert n_switch == 64 and len(node_rows) == 128

        pairs = [(int(row[1]), int(row[2])) for row in link_rows]
        assert len(set(pairs)) == len(pairs), "duplicate links"
        assert all(a != b for a, b in pairs), "self loop"

        degree = {}
        uf = UnionFind(n_switch)
        for a, b in pairs:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
            if b < n_switch:
                uf.union(a, b)
        for pn in range(n_switch, 128):
            assert degree.get(pn, 0) == 1, "processing node degree must be 1"
        assert len({uf.find(s) for s in range(n_switch)}) == 1, "switch subgraph disconnected"
        if family == "3DRMRealistic":
            sw_degree = {}
            for a, b in pairs:
                if b < n_switch:
                    sw_degree[a] = sw_degree.get(a, 0) + 1
                    sw_degree[b] = sw_degree.get(b, 0) + 1
            assert max(sw_degree.values()) <= 10, "k_max cap violated"
        checked += 1
    elapsed = time.time() - t0
    report(1, "generation invariants", checked == 1000,
           f"{checked} topologies across {len(FAMILIES)} families", elapsed, 60)


# -- criterion 2: sampling kernel --------------------------------------------------


def test_criterion_02_sampling_kernel_chi_square():
    t0 = time.time()
    cand_rng = np.random.default_rng(7)
    dists = cand_rng.uniform(0.05, 1.7, size=64)
    cands = [(i, float(d)) for i, d in enumerate(dists)]
    p_values = {}
    for k, alpha in enumerate((0.0, 1.0, 1.8, 3.0)):
        draws = sample_neighbor(0, cands, alpha, np.random.default_rng(42 + k), size=10**6)
        counts = np.bincount(draws, minlength=64)
        weights = np.ones(64) if alpha == 0 else dists**-alpha
        _, p = scipy_stats.chisquare(counts, weights / weights.sum() * 10**6)
        p_values[alpha] = p
    elapsed = time.time() - t0
    ok = all(p > 0.01 for p in p_values.values())
    detail = ", ".join(f"alpha={a}: p={p:.3f}" for a, p in p_values.items())
    report(2, "sampling kernel chi-square", ok, detail, elapsed, 30)


# -- criteria 3 + 5: scaling sweep (shared run) -------------------------------------


@pytest.fixture(scope="module")
def scaling_results():
    t0 = time.time()
    spec = ExperimentSpec(
        "scaling",
        families=("2DCA", "3DRMStandard", "3DRMRealistic"),
        seeds_per_point=10,
    )
    csv = run_experiment(spec)
    elapsed = time.time() - t0
    means = {}
    for line in csv.splitlines()[1:]:
        family, size, seed, hops, _ = line.split(",")
        if seed == "mean":
            means[(family, int(size))] = float(hops)
    return means, elapsed


def test_criterion_03_scaling_log_fit_and_lattice_ratio(scaling_results):
    means, elapsed = scaling_results
    t0 = time.time()
    rm_sizes = [n for (fam, n) in means if fam == "3DRMStandard"]
    rm_sizes.sort()
    y = np.array([means[("3DRMStandard", n)] for n in rm_sizes])
    x = np.log(rm_sizes)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r2 = 1.0 - float((residuals**2).sum() / ((y - y.mean()) ** 2).sum())

    # independent BFS oracle for the lattice growth ratio
    oracle_ratio = None
    oracle_means = {}
    for size in (9, 121):
        topo = build(TopologyConfig("2DCA", size, size, seed=0))
        hops = pn_hops_oracle(topo)
        oracle_means[size] = np.mean([h for h in hops.values()])
    oracle_ratio = oracle_means[121] / oracle_means[9]
    measured_ratio = means[("2DCA", 121)] / means[("2DCA", 9)]
    elapsed += time.time() - t0

    ok = r2 > 0.9 and abs(measured_ratio - oracle_ratio) / oracle_ratio < 0.15
    detail = (
        f"log-fit R2={r2:.4f} (slope {slope:.3f}); 2DCA ratio {measured_ratio:.3f} "
        f"vs oracle {oracle_ratio:.3f}"
    )
    report(3, "scaling behavior", ok, detail, elapsed, 300)


def test_criterion_05_realistic_tracks_standard(scaling_results):
    means, elapsed = scaling_results
    worst = 0.0
    for (family, size), value in means.items():
        if family != "3DRMStandard":
            continue
        rel = abs(means[("3DRMRealistic", size)] - value) / value
        worst = max(worst, rel)
    ok = worst < 0.15
    report(5, "realistic tracks standard", ok, f"max relative gap {worst:.3f}", elapsed, 300)


# -- criterion 4: exponent behavior ---------------------------------------------------


def test_criterion_04_alpha_ordering_and_crossover():
    t0 = time.time()
    spec = ExperimentSpec(
        "alpha-sweep",
        families=("3DRMStandard", "3DRMRealistic", "3DCA"),
        seeds_per_point=10,
    )
    csv = run_experiment(spec)
    std_means, real_means = {}, {}
    ca3_mean = None
    for line in csv.splitlines()[1:]:
        family, alpha, seed, hops, _ = line.split(",")
        if seed != "mean":
            continue
        if family == "3DRMStandard":
            std_means[float(alpha)] = float(hops)
        elif family == "3DRMRealistic":
            real_means[float(alpha)] = float(hops)
        elif family == "3DCA":
            ca3_mean = float(hops)
    chain = (
        std_means[0.0] < std_means[1.8] < std_means[3.0] < std_means[5.0]
    )
    crossover = any(
        alpha <= 2.0 and std_means[alpha] < ca3_mean and real_means[alpha] < ca3_mean
        for alpha in std_means
    )
    elapsed = time.time() - t0
    ok = chain and crossover
    detail = (
        f"hops {std_means[0.0]:.3f} < {std_means[1.8]:.3f} < {std_means[3.0]:.3f} "
        f"< {std_means[5.0]:.3f}; 3DCA ref {ca3_mean:.3f}, crossover={crossover}"
    )
    report(4, "exponent ordering and crossover", ok, detail, elapsed, 300)


# -- criterion 6: clustering ------------------------------------------------------------


def test_criterion_06_low_clustering():
    t0 = time.time()
    values = {}
    for family in ("3DRMStandard", "3DRMGlobal"):
        cs = []
        for rep in range(10):
            seed = derive_seed(0, "acceptance-clustering", family, 64, rep)
            cs.append(clustering_coefficient(build(TopologyConfig(family, 64, 64, seed=seed))))
        values[family] = float(np.mean(cs))
    elapsed = time.time() - t0
    ok = all(v < 0.15 for v in values.values())
    detail = ", ".join(f"{fam}: C={v:.3f}" for fam, v in values.items())
    report(6, "low clustering coefficient", ok, detail, elapsed, 60)


# -- criterion 7: monotone sizing trends ---------------------------------------------------


def test_criterion_07_monotone_switch_trends():
    t0 = time.time()
    spec = ExperimentSpec("switch-sweep", families=("3DRMStandard",), seeds_per_point=10)
    csv = run_experiment(spec)
    hops, plen = {}, {}
    for line in csv.splitlines()[1:]:
        sweep, family, value, seed, avg_hops, avg_plen = line.split(",")
        if seed != "mean" or family != "3DRMStandard":
            continue
        if sweep == "S":
            hops[int(float(value))] = float(avg_hops)
        elif sweep == "ks":
            plen[float(value)] = float(avg_plen)
    s_grid = sorted(hops)
    ks_grid = sorted(plen)
    hops_ok = all(hops[a] <= hops[b] for a, b in zip(s_grid, s_grid[1:]))
    plen_ok = all(plen[a] >= plen[b] for a, b in zip(ks_grid, ks_grid[1:]))
    elapsed = time.time() - t0
    detail = (
        f"hops {[round(hops[s], 3) for s in s_grid]} nondecreasing={hops_ok}; "
        f"path length {[round(plen[k], 3) for k in ks_grid]} nonincreasing={plen_ok}"
    )
    report(7, "monotone sizing trends", hops_ok and plen_ok, detail, elapsed, 300)


# -- criterion 8: robustness under link failures ----------------------------------------------


def test_criterion_08_link_failure_robustness():
    t0 = time.time()
    spec = ExperimentSpec(
        "robustness",
        families=("2DCA", "3DCA", "3DRMStandard", "3DRMRealistic"),
        sweep_values=(0, 40),
        seeds_per_point=10,
    )
    csv = run_experiment(spec)
    means = {}
    for line in csv.splitlines()[1:]:
        fields = line.split(",")
        if fields[2] == "mean":
            means[(fields[0], int(fields[1]))] = float(fields[8])
    increase = {
        fam: means[(fam, 40)] / means[(fam, 0)] - 1.0
        for fam in ("2DCA", "3DCA", "3DRMStandard", "3DRMRealistic")
    }
    ca_over_rm = min(increase["2DCA"], increase["3DCA"]) > max(
        increase["3DRMStandard"], increase["3DRMRealistic"]
    )
    standard_small = increase["3DRMStandard"] < 0.20
    elapsed = time.time() - t0
    ok = ca_over_rm and standard_small
    detail = ", ".join(f"{fam}: +{inc:.1%}" for fam, inc in increase.items())
    report(8, "link-failure robustness", ok, detail, elapsed, 600)


# -- criterion 9: synchronization task ----------------------------------------------------------


def test_criterion_09_synchronization_ordering_and_hull():
    t0 = time.time()
    horizon = 4000
    threshold = 0.05
    mean_steps = {}
    for family in ("2DCA", "3DRMGlobal", "3DRMStandard"):
        steps = []
        for rep in range(10):
            seed = derive_seed(0, "sync", family, "trace", rep)
            topo = build(TopologyConfig(family, 64, 64, seed=seed))
            cfg = SimConfig(
                routing=Routing.RANDOM_WANDERING, horizon=horizon, seed=derive_subseed(seed, "gossip")
            )
            hull = {}

            def check_hull(step, freqs, sim, hull=hull):
                if not hull:
                    hull["lo"], hull["hi"] = float(freqs.min()), float(freqs.max())
                assert freqs.min() >= hull["lo"] - 1e-12
                assert freqs.max() <= hull["hi"] + 1e-12
                payload = sim.messages("buffered")["payload"]
                assert hull["lo"] - 1e-12 <= payload.min() and payload.max() <= hull["hi"] + 1e-12
                hull["lo"] = min(hull["lo"], float(freqs.min()))
                hull["hi"] = max(hull["hi"], float(freqs.max()))

            trace = run_sync_task(topo, cfg, on_step=check_hull)
            hit = trace.steps_to_threshold[threshold]
            steps.append(hit if hit is not None else horizon)
        mean_steps[family] = float(np.mean(steps))
    ordering = (
        mean_steps["3DRMGlobal"] < mean_steps["3DRMStandard"] < mean_steps["2DCA"]
    )
    elapsed = time.time() - t0
    detail = ", ".join(f"{fam}: {v:.0f} steps" for fam, v in mean_steps.items())
    report(9, "synchronization ordering + hull confinement", ordering, detail, elapsed, 600)


# -- criterion 10: conservation and determinism ---------------------------------------------------


def test_criterion_10_conservation_and_determinism(tmp_path):
    t0 = time.time()
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=17))
    sim = Simulation(topo, SimConfig(injection_rate=0.5, seed=23))
    balanced = True
    for _ in range(10**4):
        sim.step()
        if not sim.conservation_ok():
            balanced = False
            break

    # byte-identical CSVs from separate processes with different thread counts
    outputs = []
    for idx, threads in enumerate(("1", "8")):
        out = tmp_path / f"run{idx}.csv"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [
                sys.executable, "-m", "multitude_sim.cli", "simulate",
                "--family", "3DRMStandard", "--seed", "17", "--steps", "500",
                "--pi", "0.5", "--out", str(out),
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    elapsed = time.time() - t0
    ok = balanced and identical
    detail = (
        f"accounting balanced over 10^4 steps at p_I=0.5: {balanced}; "
        f"byte-identical across thread counts: {identical}"
    )
    report(10, "conservation and determinism", ok, detail, elapsed, 120)


# -- criterion 11: dynamic/static agreement ------------------------------------------------------


def test_criterion_11_dynamic_static_agreement():
    t0 = time.time()
    gaps = {}
    buffer_drops = 0
    for family in FAMILIES:
        # the family's 10 replicates run as lanes of one simulation
        jobs = []
        for rep in range(10):
            seed = derive_seed(0, "acceptance-agreement", family, 64, rep)
            topo = build(TopologyConfig(family, 64, 64, seed=seed))
            jobs.append((topo, SimConfig(horizon=400, seed=derive_subseed(seed, "traffic"))))
        static_means = [average_hops(topo)[0] for topo, _ in jobs]
        results = run_many(jobs)
        buffer_drops += sum(stats.dropped_buffer for stats in results)
        dynamic_means = [stats.avg_hops_delivered for stats in results]
        static = float(np.mean(static_means))
        dynamic = float(np.mean(dynamic_means))
        gaps[family] = abs(dynamic - static) / static
    elapsed = time.time() - t0
    ok = all(g < 0.05 for g in gaps.values()) and buffer_drops == 0
    detail = (
        ", ".join(f"{fam}: {g:.1%}" for fam, g in gaps.items())
        + f"; buffer drops {buffer_drops}"
    )
    report(11, "dynamic/static hop agreement", ok, detail, elapsed, 300)
