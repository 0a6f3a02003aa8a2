import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rtlab import sphere as S
from rtlab.analysis import max_clique, read_edge_list, write_edge_list
from rtlab.cbe import CbeGraph, CbeParams, build_cbe, cross_edge, rotation_witness
from rtlab.sphere import InfeasiblePartition


def params(p=3, ell=1, k=8, n=50, epsilon=0.05, big_k=10.0, seed=1, mode="sampled"):
    return CbeParams(p=p, ell=ell, k=k, n=n, epsilon=epsilon, big_k=big_k,
                     seed=seed, mode=mode)


def unit_with_inner_product(k, c):
    """w = e1 and z with <w, z> = c (|c| <= 1)."""
    w = np.zeros(k, dtype=complex)
    w[0] = 1.0
    z = np.zeros(k, dtype=complex)
    z[0] = np.conj(c)
    z[1] = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
    return w, z


def cross_edge_oracle(ip, p, ell, kmu):
    """Direct evaluation of both cross predicates for one inner product."""
    rho = cmath.exp(2j * math.pi / p)
    strips = all(abs((rho ** h * ip).imag) >= kmu for h in range(p))
    ang = cmath.phase(ip) % (2 * math.pi)
    window = ang <= 2 * math.pi * ell / p
    return strips and window


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_derived_quantities():
    pr = params(p=3, k=8, epsilon=0.05)
    assert pr.mu == 0.05 / math.sqrt(16)
    assert abs(abs(pr.rho) - 1) < 1e-15
    assert abs(pr.rho ** pr.p - 1) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        params(ell=0)
    with pytest.raises(ValueError):
        params(ell=3, p=3)
    with pytest.raises(ValueError):
        params(p=1, ell=0)
    with pytest.raises(ValueError):
        params(epsilon=0.0)
    with pytest.raises(ValueError):
        params(big_k=0.5)
    with pytest.raises(ValueError):
        params(mode="other")


def test_params_hierarchy_advisory_warns():
    with pytest.warns(UserWarning):
        CbeParams(p=9, ell=1, k=2, n=4, epsilon=1.5, big_k=1.0, seed=0)


def test_warnings_point_at_the_caller():
    with pytest.warns(UserWarning, match="parameter hierarchy advisory") as record:
        CbeParams(p=3, ell=1, k=1, n=2, epsilon=1.0, seed=0)
    # both advisories: 3 sqrt(mu) >= 4/p and big_k*mu >= 1
    assert len(record) == 2
    assert all(w.filename == __file__ for w in record)
    # through dataclasses.replace, whose frames lie in dataclasses.py
    quiet = CbeParams(p=3, ell=1, k=8, n=4, seed=0)
    with pytest.warns(UserWarning, match="parameter hierarchy advisory") as record:
        replace(quiet, epsilon=1.0)
    assert [w.filename for w in record] == [__file__]
    with pytest.warns(UserWarning, match="cross degree concentration") as record:
        build_cbe(CbeParams(p=3, ell=1, k=32, n=4, seed=0))
    assert [w.filename for w in record] == [__file__]


# ---------------------------------------------------------------------------
# rotation witnesses (rule B1)
# ---------------------------------------------------------------------------

def test_rotation_witness_exact_rotation():
    pr = params(p=3, k=4)
    rng = S.philox_rng(5)
    v = S.sample_complex_sphere(4, 1, rng)[0]
    assert rotation_witness(pr.rho * v, v, pr) == 1
    assert rotation_witness(pr.rho ** 2 * v, v, pr) == 2


def test_rotation_witness_same_point_is_none():
    # |v - rho^h v| = |1 - rho^h| >= 4/p, far above sqrt(mu)
    pr = params(p=3, k=4, epsilon=0.01 * math.sqrt(8))  # mu = 0.01
    rng = S.philox_rng(6)
    v = S.sample_complex_sphere(4, 1, rng)[0]
    for h in range(1, 3):
        assert abs(1 - pr.rho ** h) >= 4 / 3 - 1e-12
    assert rotation_witness(v, v, pr) is None


def test_rotation_witness_random_pairs_none():
    # cap of radius sqrt(mu) has measure <= exp(-k (1 - mu/2)^2): expect zero
    # witnesses among 10^4 independent pairs
    pr = params(p=3, k=16, epsilon=0.01 * math.sqrt(32), n=1)  # mu = 0.01
    rng = S.philox_rng(7)
    U = S.sample_complex_sphere(16, 10_000, rng)
    V = S.sample_complex_sphere(16, 10_000, rng)
    hits = sum(rotation_witness(U[i], V[i], pr) is not None for i in range(10_000))
    bound = (pr.p - 1) * math.exp(-pr.k * (1 - pr.mu / 2) ** 2)
    assert hits == 0
    assert 10_000 * bound < 0.1  # the zero count is consistent with the cap bound


def test_rotation_relation_symmetry():
    with pytest.warns(UserWarning, match="parameter hierarchy advisory"):
        pr = params(p=5, k=4, epsilon=0.3)
    rng = S.philox_rng(8)
    v = S.sample_complex_sphere(4, 1, rng)[0]
    u = pr.rho ** 2 * v
    h = rotation_witness(u, v, pr)
    assert h == 2
    assert rotation_witness(v, u, pr) == pr.p - 2


# ---------------------------------------------------------------------------
# cross edges (rule B2)
# ---------------------------------------------------------------------------

def test_cross_edge_orthogonal_false():
    pr = params(p=3, ell=1, k=4)
    w, z = unit_with_inner_product(4, 0.0)
    assert not cross_edge(w, z, pr)


def test_cross_edge_strip_centre_false():
    # <w,z> = 0.5 e^{i pi/3}: rho^1 rotates it onto the negative real axis,
    # so Im(rho <w,z>) = 0 < K mu and condition (i) fails
    pr = CbeParams(p=3, ell=1, k=4, n=1, epsilon=0.001 * math.sqrt(8), big_k=1.0, seed=0)
    ip = 0.5 * cmath.exp(1j * math.pi / 3)
    assert abs((pr.rho * ip).imag) < pr.big_k * pr.mu
    assert not cross_edge_oracle(ip, 3, 1, pr.big_k * pr.mu)
    w, z = unit_with_inner_product(4, ip)
    assert not cross_edge(w, z, pr)


def test_cross_edge_inside_window_true():
    pr = CbeParams(p=3, ell=1, k=4, n=1, epsilon=0.001 * math.sqrt(8), big_k=1.0, seed=0)
    ip = 0.5 * cmath.exp(1j * math.pi / 2)
    assert cross_edge_oracle(ip, 3, 1, pr.big_k * pr.mu)
    w, z = unit_with_inner_product(4, ip)
    assert cross_edge(w, z, pr)


def test_cross_edge_window_excludes_large_argument():
    pr = params(p=3, ell=1, k=4)
    w, z = unit_with_inner_product(4, 0.5 * cmath.exp(1j * math.pi))
    assert not cross_edge(w, z, pr)


def test_cross_edge_matches_oracle_on_random_pairs():
    pr = params(p=4, ell=2, k=8, epsilon=0.08, big_k=2.0)
    rng = S.philox_rng(9)
    W = S.sample_complex_sphere(8, 60, rng)
    Z = S.sample_complex_sphere(8, 60, rng)
    kmu = pr.big_k * pr.mu
    for i in range(60):
        ip = complex(np.sum(W[i] * np.conj(Z[i])))
        # skip knife-edge cases within float slack of the thresholds
        margin = min(abs(abs((pr.rho ** h * ip).imag) - kmu) for h in range(4))
        if margin < 1e-12:
            continue
        assert cross_edge(W[i], Z[i], pr) == cross_edge_oracle(ip, 4, 2, kmu)


# ---------------------------------------------------------------------------
# built graphs
# ---------------------------------------------------------------------------

def test_build_edge_rules_sound():
    with pytest.warns(UserWarning, match="parameter hierarchy advisory"):
        pr = params(p=3, ell=1, k=6, n=40, epsilon=0.4, seed=3)
    g = build_cbe(pr)
    n = pr.n
    for i in range(n):
        for j in range(i + 1, n):
            w = rotation_witness(g.W[i], g.W[j], pr)
            assert (w is not None) == g.adjacency[i, j]
            zw = rotation_witness(g.Z[i], g.Z[j], pr)
            assert (zw is not None) == g.adjacency[n + i, n + j]
    for i in range(n):
        for j in range(n):
            assert g.adjacency[i, n + j] == cross_edge(g.W[i], g.Z[j], pr)
    assert not np.any(np.diag(g.adjacency))
    assert np.array_equal(g.adjacency, g.adjacency.T)


def _rotation_family(p, k, ell, seed, extra_per_class=1):
    """W containing rho^h v plus tangent noise for each h: a K_p with edges."""
    pr = CbeParams(p=p, ell=ell, k=k, n=p * extra_per_class, epsilon=0.2,
                   big_k=1.0, seed=seed)
    rng = S.philox_rng(seed, 33)
    v = S.sample_complex_sphere(k, 1, rng)[0]
    pts = []
    for h in range(p):
        for _ in range(extra_per_class):
            noise = 0.005 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            u = pr.rho ** h * v + noise
            pts.append(u / np.linalg.norm(u))
    Z = S.sample_complex_sphere(k, len(pts), rng)
    return pr, CbeGraph(pr, np.array(pts), Z)


def test_rotation_composition_on_triangles():
    pr, g = _rotation_family(p=5, k=6, ell=2, seed=11)
    n = pr.n
    triangles = [
        (i, j, t)
        for i, j, t in itertools.combinations(range(n), 3)
        if g.adjacency[i, j] and g.adjacency[i, t] and g.adjacency[j, t]
    ]
    assert triangles  # the rotation family forces inner triangles
    for i, j, t in triangles:
        h_i = rotation_witness(g.W[i], g.W[t], pr)
        h_j = rotation_witness(g.W[j], g.W[t], pr)
        assert h_i != h_j
        assert rotation_witness(g.W[i], g.W[j], pr) == (h_i - h_j) % pr.p


def test_inner_graphs_kp1_free():
    for p, seed in [(3, 1), (4, 2), (5, 3)]:
        pr, g = _rotation_family(p=p, k=6, ell=1, seed=seed, extra_per_class=2)
        inner = g.to_labeled_graph().subgraph(range(pr.n))
        cert = max_clique(inner)
        assert cert.exhaustive
        assert cert.size == p  # one vertex per rotation class, never p + 1


def test_build_small_instance_clique_bound():
    pr = params(p=3, ell=1, k=8, n=100, epsilon=0.05, big_k=10.0, seed=7)
    g = build_cbe(pr)
    cert = max_clique(g.to_labeled_graph())
    assert cert.exhaustive
    assert cert.size <= pr.p + pr.ell


def test_max_inner_degree_bound():
    pr = params(p=3, ell=1, k=8, n=100, epsilon=0.05, seed=4)
    g = build_cbe(pr)
    bound = pr.p * math.exp(-pr.k * (1 - pr.mu) ** 2) * pr.n + 3 * math.sqrt(pr.n)
    assert g.max_inner_degree() <= bound


def test_cross_density_near_ell_over_p():
    pr = params(p=3, ell=1, k=32, n=200, epsilon=0.02, big_k=2.0, seed=5)
    g = build_cbe(pr)
    assert abs(g.cross_density() - 1 / 3) <= 0.2


def test_build_determinism():
    pr = params(n=30, seed=21)
    g1 = build_cbe(pr)
    g2 = build_cbe(pr)
    assert np.array_equal(g1.W, g2.W)
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_strict_mode_circle():
    # k = 1: the partition is a circle of arcs; feasible when the arc chord
    # fits under mu/4
    with pytest.warns(UserWarning):  # k = 1 sits outside the advisory hierarchy
        pr = params(p=3, ell=1, k=1, n=100, epsilon=0.4, seed=2, mode="strict")
    g = build_cbe(pr)
    assert g.adjacency.shape == (200, 200)
    with pytest.warns(UserWarning, match="parameter hierarchy advisory"):
        tight = CbeParams(p=3, ell=1, k=1, n=50, epsilon=0.4, big_k=10.0, seed=2,
                          mode="strict")
    with pytest.raises(InfeasiblePartition):
        build_cbe(tight)


def test_edge_list_export(tmp_path):
    pr = params(n=20, seed=8)
    g = build_cbe(pr)
    lg = g.to_labeled_graph()
    path = tmp_path / "g.edges"
    write_edge_list(path, lg, classes=f"classes W=[0,{pr.n}) Z=[{pr.n},{2 * pr.n})")
    back = read_edge_list(path)
    assert back.n == 2 * pr.n
    assert np.array_equal(back.rows, lg.rows)
