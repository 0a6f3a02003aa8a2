"""Acceptance suite: every headline property at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import math
from fractions import Fraction

import pytest
from test_analysis import subgraph
from test_mbe import reference_find_dense_subconfig
from test_sphere import (
    cap_measure_lower_bound,
    cap_measure_upper_bound,
    mc_cap_height_measure,
    mc_cap_radius_measure,
    rhombus_search,
)

from rtlab import sphere as S
from rtlab.analysis import max_clique, rho_star, theorem13_density
from rtlab.cbe import CbeParams, build_cbe
from rtlab.cli import (
    suite_dominance_axioms,
    suite_gofa_oracle,
    suite_smallp,
    suite_theorem15_window,
)
from rtlab.mbe import MbeParams, build_mbe

CBE_SETTINGS = [(3, 1), (4, 2)]
CBE_SEEDS = list(range(20))
MBE_SETTINGS = [(1, 1, 2, 8), (2, 1, 2, 8), (2, 2, 2, 8), (3, 1, 4, 4)]
MBE_SEEDS = list(range(10))

_cbe_cache = {}
_mbe_cache = {}


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cbe_instance(p, ell, seed):
    key = (p, ell, seed)
    if key not in _cbe_cache:
        params = CbeParams(p=p, ell=ell, k=16, n=300, epsilon=0.02, big_k=2.0,
                           seed=seed)
        _cbe_cache[key] = build_cbe(params)
    return _cbe_cache[key]


def mbe_instance(ell, p, q, m, seed):
    key = (ell, p, q, m, seed)
    if key not in _mbe_cache:
        params = MbeParams(ell=ell, p=p, q=q, k=10, m=m, epsilon=0.05, t=1,
                           seed=seed)
        _mbe_cache[key] = build_mbe(params)
    return _mbe_cache[key]


def test_cbe_clique_bound():
    # exact omega <= p + ell on every instance, both settings, 20 seeds
    worst = 0
    for p, ell in CBE_SETTINGS:
        for seed in CBE_SEEDS:
            g = cbe_instance(p, ell, seed)
            cert = max_clique(g.to_labeled_graph())
            assert cert.exhaustive
            worst = max(worst, cert.size - (p + ell))
            if cert.size > p + ell:
                _report("cbe-clique-bound", False,
                        f"omega={cert.size} > {p+ell} at {(p, ell, seed)}")
    _report("cbe-clique-bound", worst <= 0,
            f"40 instances, max omega-(p+ell) gap {worst} (tolerance: none)")


def test_cbe_inner_freeness():
    for p, ell in CBE_SETTINGS:
        for seed in CBE_SEEDS:
            g = cbe_instance(p, ell, seed)
            lg = g.to_labeled_graph()
            for lo, hi in ((0, 300), (300, 600)):
                cert = max_clique(subgraph(lg, range(lo, hi)))
                assert cert.exhaustive
                if cert.size > p:
                    _report("cbe-inner-freeness", False,
                            f"inner omega={cert.size} > p={p} at seed {seed}")
    _report("cbe-inner-freeness", True,
            "G[W], G[Z] are K_{p+1}-free on all 40 instances")


def test_cbe_cross_density():
    params = CbeParams(p=3, ell=1, k=32, n=500, epsilon=0.02, big_k=2.0, seed=1)
    g = build_cbe(params)
    dev = abs(g.cross_density() - 1 / 3)
    _report("cbe-cross-density", dev <= 0.15,
            f"|d(W,Z) - 1/3| = {dev:.4f} (tolerance 0.15)")


def test_cbe_edges_decided_in_float():
    # every edge test of the 40 instances and the density instance clears
    # the float error bound: no decision falls to the exact path
    graphs = [cbe_instance(p, ell, seed) for p, ell in CBE_SETTINGS for seed in CBE_SEEDS]
    graphs.append(build_cbe(CbeParams(p=3, ell=1, k=32, n=500, epsilon=0.02, big_k=2.0,
                                      seed=1)))
    exact = sum(g.exact_decisions for g in graphs)
    _report("cbe-float-decisions", exact == 0,
            f"{exact} exact decisions over {len(graphs)} instances (tolerance: none)")


def test_mbe_clique_bound():
    checked = 0
    for ell, p, q, m in MBE_SETTINGS:
        bound = 2 ** ell + 2 ** p + q - 2
        for seed in MBE_SEEDS:
            g = mbe_instance(ell, p, q, m, seed)
            cert = max_clique(g.to_labeled_graph(), cutoff=bound)
            checked += 1
            if cert.upper_bound != bound:
                _report("mbe-clique-bound", False,
                        f"omega={cert.size} > {bound} at {(ell, p, q, seed)}")
    _report("mbe-clique-bound", True,
            f"omega <= 2^ell + 2^p + q - 2 on {checked} instances (tolerance: none)")


# blow-up rows: (ell, p, q, k, m, t, retention, seed) -> the pinned
# (retained, deleted, kept) hyperedge counts.  At t = 4, B' moved when the
# dense search took its stated order; t = 9 is the largest blow-up run here
BLOWUP_ROWS = {
    "t4": ((2, 1, 2, 6, 6, 4, 0.25, 20), (547, 496, 51)),
    "t9": ((2, 1, 2, 10, 2, 9, 0.5, 5), (3345, 3329, 16)),
}


@pytest.mark.parametrize("row", BLOWUP_ROWS)
def test_mbe_blowup(row):
    # B' sparse by the tests' own search, omega certified under the cutoff
    (ell, p, q, k, m, t, retention, seed), counts = BLOWUP_ROWS[row]
    params = MbeParams(ell=ell, p=p, q=q, k=k, m=m, epsilon=0.05, t=t,
                       retention=retention, seed=seed)
    g = build_mbe(params)
    edges = g.hypergraph.hyperedges
    violator = reference_find_dense_subconfig(edges.tolist(), params.zeta, params.r)
    bound = g.omega_bound()
    cert = max_clique(g.to_labeled_graph(), cutoff=bound)
    got = (g.blowup_report.retained, g.blowup_report.deleted, len(edges))
    _report(f"mbe-blowup-{row}",
            violator is None and cert.upper_bound == bound and got == counts,
            f"violator {violator}, omega={cert.size} <= {bound}: "
            f"{cert.upper_bound == bound}, (retained, deleted, kept) {got} "
            f"(pinned {counts})")


def test_mbe_cross_density():
    params = MbeParams(ell=2, p=1, q=2, k=12, m=8, epsilon=0.05, t=1, seed=1)
    g = build_mbe(params)
    dev = abs(g.pair_density(0, 1) - 0.5)
    _report("mbe-cross-density", dev <= 0.2,
            f"|d(V1,V2) - 1/2| = {dev:.4f} (tolerance 0.2)")


def test_formula_table():
    ok = rho_star(3, 5)[0] == Fraction(1, 6)
    for t in range(1, 11):
        ok = ok and rho_star(3, 3 * t + 2)[0] == Fraction(5 * t - 4, 5 * t + 1)
        ok = ok and rho_star(4, 4 * t + 2)[0] == Fraction(7 * t - 6, 7 * t + 1)
    for p in range(2, 11):
        for ell in range(1, p // 2 + 1):
            ok = ok and rho_star(p, p + ell + 1)[0] == Fraction(ell, 2 * p)
    rep = theorem13_density(9, 3, 4)
    ok = ok and rep.lower_bound == Fraction(6, 512)
    ok = ok and rep.rho_star_value == Fraction(5, 512)
    ok = ok and rep.exceeds_conjecture
    _report("formula-table", ok,
            "rho* families and the 6/m vs 5/m separation, exact rationals")


def test_weighted_exhaustive_p3():
    rep = suite_smallp(3)
    _report("weighted-exhaustive-p3", rep["passed"],
            f"{rep['counters']['checked']} graphs, "
            f"{rep['counters']['failures']} failures")


def test_weighted_exhaustive_p4():
    rep = suite_smallp(4)
    _report("weighted-exhaustive-p4", rep["passed"],
            f"{rep['counters']['checked']} graphs, "
            f"{rep['counters']['failures']} failures")


def test_gofa_oracle_equivalence():
    rep = suite_gofa_oracle(trials=200, seed=0)
    _report("gofa-oracle", rep["passed"],
            f"max deviation {rep['counters']['max_deviation']:.2e} "
            f"(tolerance 1e-3), row-sum identity exact: "
            f"{rep['counters']['row_sum_identity']}")


def test_dominance_axioms_and_membership():
    rep = suite_dominance_axioms(seed=0)
    _report("dominance-axioms", rep["passed"],
            f"{rep['counters']['membership_graphs']} membership graphs, "
            f"axiom trials {rep['counters']['axiom_trials']}")


def test_geometry_oracles():
    samples = 200_000
    ok = True
    details = []
    for k in (10, 20, 40):
        for alpha in (0.1, 0.3, 0.5):
            est, se = mc_cap_height_measure(k, alpha, samples, seed=100 + k)
            bound = cap_measure_upper_bound(k, alpha)
            if est > bound + 4 * se:
                ok = False
                details.append(f"upper k={k} a={alpha}")
        for delta in (0.1, 0.3, 0.5):
            radius = math.sqrt(2) - delta / math.sqrt(2 * k)
            est, se = mc_cap_radius_measure(k, radius, samples, seed=200 + k)
            bound = cap_measure_lower_bound(k, delta)
            if est < bound - 4 * se:
                ok = False
                details.append(f"lower k={k} d={delta}")
    for seed in range(3):
        rng = S.philox_rng(300 + seed)
        P = S.sample_real_sphere(4, 200, rng)
        Q = S.sample_real_sphere(4, 200, rng)
        if rhombus_search(P, Q, mu=0.2) is not None:
            ok = False
            details.append(f"rhombus witness at seed {seed}")
    _report("geometry-oracles", ok,
            "cap bounds within 4 sigma on the 3x3 grid; rhombus search empty"
            + ("" if ok else f"; violations: {details}"))


def test_theorem15_window():
    rep = suite_theorem15_window()
    _report("theorem15-window", rep["passed"],
            f"{rep['counters']['cases']} (t, s) cases, "
            f"{rep['counters']['failures']} failures")
