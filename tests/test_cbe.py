import cmath
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from test_analysis import subgraph
from test_golden import digests

from rtlab import cbe, cli
from rtlab import sphere as S
from rtlab.analysis import (LabeledGraph, _mirror, _zero_rows, max_clique, read_edge_list,
                            write_edge_list)
from rtlab.cbe import CbeGraph, CbeParams, build_cbe
from rtlab.sphere import GEOM_TOL, InfeasiblePartition


def params(p=3, ell=1, k=8, n=50, epsilon=0.05, big_k=10.0, seed=1, mode="sampled"):
    return CbeParams(p=p, ell=ell, k=k, n=n, epsilon=epsilon, big_k=big_k,
                     seed=seed, mode=mode)


def inner(u, v):
    """<u, v> = sum_i u_i conj(v_i)."""
    return complex(np.sum(u * np.conj(v)))


def rotation_witness(ip, params):
    """Reference rule B1 on one inner product ip = <u, v>: the smallest h in
    [p-1] with |u - rho^h v| <= sqrt(mu) (GEOM_TOL slack), or None."""
    rho = cmath.exp(2j * math.pi / params.p)
    for h in range(1, params.p):
        # |u - rho^h v|^2 = 2 - 2 Re(rho^{-h} <u, v>) on unit vectors
        if 2.0 - 2.0 * (rho ** -h * ip).real <= params.mu + GEOM_TOL:
            return h
    return None


def cross_edge(ip, params):
    """Reference rule B2 on one inner product ip = <w, z>: |Im(rho^h ip)| >=
    K mu for every h, and arg ip in [0, 2 pi ell / p] (GEOM_TOL slack)."""
    rho = cmath.exp(2j * math.pi / params.p)
    kmu = params.big_k * params.mu
    strips = all(abs((rho ** h * ip).imag) >= kmu - GEOM_TOL for h in range(params.p))
    ang = cmath.phase(ip) % (2 * math.pi)
    window_hi = 2 * math.pi * params.ell / params.p
    window = ang <= window_hi + GEOM_TOL or ang >= 2 * math.pi - GEOM_TOL
    return strips and window


def unpack(rows, count):
    return np.unpackbits(rows, axis=1, count=count, bitorder="little").view(bool)


def inner_adjacency(points, params, fallbacks=None):
    """The library's rotation tests on one class, packed, mirrored as
    CbeGraph mirrors them and unpacked to a bool matrix."""
    rows = _zero_rows(len(points))
    exact = cbe._edge_tests(points, points, params, cbe._rotation_terms,
                            cbe._rotation_margin, rows, 0, upper=True)
    if fallbacks is not None:
        fallbacks.append(exact)
    _mirror(rows)
    return unpack(rows, len(points))


def cross_adjacency(W, Z, params, fallbacks=None):
    """The library's cross tests on W x Z, unpacked to a bool matrix."""
    rows = np.zeros((len(W), (len(Z) + 7) // 8), dtype=np.uint8)
    exact = cbe._edge_tests(W, Z, params, cbe._cross_terms, cbe._cross_margin, rows, 0)
    if fallbacks is not None:
        fallbacks.append(exact)
    return unpack(rows, len(Z))


def kernel_cross_edge(ip, params):
    """The library's cross test on w = e_1 and a unit z with <w, z> = ip."""
    w = np.zeros((1, params.k), dtype=complex)
    z = np.zeros((1, params.k), dtype=complex)
    w[0, 0] = 1.0
    z[0, 0], z[0, 1] = np.conj(ip), math.sqrt(max(0.0, 1.0 - abs(ip) ** 2))
    return bool(cross_adjacency(w, z, params)[0, 0])


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
    assert rotation_witness(inner(pr.rho * v, v), pr) == 1
    assert rotation_witness(inner(pr.rho ** 2 * v, v), pr) == 2


def test_rotation_witness_same_point_is_none():
    # |v - rho^h v| = |1 - rho^h| >= 4/p, far above sqrt(mu)
    pr = params(p=3, k=4, epsilon=0.01 * math.sqrt(8))  # mu = 0.01
    rng = S.philox_rng(6)
    v = S.sample_complex_sphere(4, 1, rng)[0]
    for h in range(1, 3):
        assert abs(1 - pr.rho ** h) >= 4 / 3 - 1e-12
    assert rotation_witness(inner(v, v), pr) is None


def test_rotation_witness_random_pairs_none():
    # cap of radius sqrt(mu) has measure <= exp(-k (1 - mu/2)^2): expect zero
    # witnesses among 10^4 independent pairs
    pr = params(p=3, k=16, epsilon=0.01 * math.sqrt(32), n=1)  # mu = 0.01
    rng = S.philox_rng(7)
    U = S.sample_complex_sphere(16, 10_000, rng)
    V = S.sample_complex_sphere(16, 10_000, rng)
    hits = sum(rotation_witness(inner(U[i], V[i]), pr) is not None for i in range(10_000))
    bound = (pr.p - 1) * math.exp(-pr.k * (1 - pr.mu / 2) ** 2)
    assert hits == 0
    assert 10_000 * bound < 0.1  # the zero count is consistent with the cap bound


def test_rotation_relation_symmetry():
    with pytest.warns(UserWarning, match="parameter hierarchy advisory"):
        pr = params(p=5, k=4, epsilon=0.3)
    rng = S.philox_rng(8)
    v = S.sample_complex_sphere(4, 1, rng)[0]
    u = pr.rho ** 2 * v
    assert rotation_witness(inner(u, v), pr) == 2
    assert rotation_witness(inner(v, u), pr) == pr.p - 2


# ---------------------------------------------------------------------------
# cross edges (rule B2)
# ---------------------------------------------------------------------------

def test_cross_edge_orthogonal_false():
    pr = params(p=3, ell=1, k=4)
    assert not cross_edge(0j, pr) and not kernel_cross_edge(0j, pr)


def test_cross_edge_strip_centre_false():
    # <w,z> = 0.5 e^{i pi/3}: rho^1 rotates it onto the negative real axis,
    # so Im(rho <w,z>) = 0 < K mu and condition (i) fails
    pr = CbeParams(p=3, ell=1, k=4, n=1, epsilon=0.001 * math.sqrt(8), big_k=1.0, seed=0)
    ip = 0.5 * cmath.exp(1j * math.pi / 3)
    assert abs((pr.rho * ip).imag) < pr.big_k * pr.mu
    assert not cross_edge(ip, pr) and not kernel_cross_edge(ip, pr)


def test_cross_edge_inside_window_true():
    pr = CbeParams(p=3, ell=1, k=4, n=1, epsilon=0.001 * math.sqrt(8), big_k=1.0, seed=0)
    ip = 0.5 * cmath.exp(1j * math.pi / 2)
    assert cross_edge(ip, pr) and kernel_cross_edge(ip, pr)


def test_cross_edge_window_excludes_large_argument():
    pr = params(p=3, ell=1, k=4)
    ip = 0.5 * cmath.exp(1j * math.pi)
    assert not cross_edge(ip, pr) and not kernel_cross_edge(ip, pr)


def test_cross_edge_matches_oracle_on_random_pairs():
    pr = params(p=4, ell=2, k=8, epsilon=0.08, big_k=2.0)
    rng = S.philox_rng(9)
    W = S.sample_complex_sphere(8, 60, rng)
    Z = S.sample_complex_sphere(8, 60, rng)
    kmu = pr.big_k * pr.mu - GEOM_TOL
    adjacency = cross_adjacency(W, Z, pr)
    for i, j in itertools.product(range(60), repeat=2):
        ip = inner(W[i], Z[j])
        # skip knife-edge cases within float slack of the thresholds
        margin = min(abs(abs((pr.rho ** h * ip).imag) - kmu) for h in range(4))
        if margin < 1e-12:
            continue
        assert adjacency[i, j] == cross_edge(ip, pr)


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
            w = rotation_witness(inner(g.W[i], g.W[j]), pr)
            assert (w is not None) == g.adjacency[i, j]
            zw = rotation_witness(inner(g.Z[i], g.Z[j]), pr)
            assert (zw is not None) == g.adjacency[n + i, n + j]
    for i in range(n):
        for j in range(n):
            assert g.adjacency[i, n + j] == cross_edge(inner(g.W[i], g.Z[j]), pr)
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
        h_i = rotation_witness(inner(g.W[i], g.W[t]), pr)
        h_j = rotation_witness(inner(g.W[j], g.W[t]), pr)
        assert h_i != h_j
        assert rotation_witness(inner(g.W[i], g.W[j]), pr) == (h_i - h_j) % pr.p


def test_inner_graphs_kp1_free():
    for p, seed in [(3, 1), (4, 2), (5, 3)]:
        pr, g = _rotation_family(p=p, k=6, ell=1, seed=seed, extra_per_class=2)
        cert = max_clique(subgraph(g.to_labeled_graph(), range(pr.n)))
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


# ---------------------------------------------------------------------------
# row-blocked edge tests against the whole-matrix ones
# ---------------------------------------------------------------------------

def reference_inner_adjacency(points, params):
    """Reference: the rotation tests on the whole Gram matrix at once."""
    gram = points @ points.conj().T
    hit = np.zeros(gram.shape, dtype=bool)
    for h in range(1, params.p):
        hit |= 2.0 - 2.0 * (params.rho ** (-h) * gram).real <= params.mu + GEOM_TOL
    upper = np.triu(hit, 1)
    return upper | upper.T


def reference_cross_adjacency(W, Z, params):
    """Reference: the strip and window tests on the whole Gram matrix, the
    angle reduced with a float %."""
    gram = W @ Z.conj().T
    kmu = params.big_k * params.mu
    strips = np.ones(gram.shape, dtype=bool)
    for h in range(params.p):
        strips &= np.abs((params.rho ** h * gram).imag) >= kmu - GEOM_TOL
    ang = np.angle(gram) % (2 * math.pi)
    window_hi = 2 * math.pi * params.ell / params.p
    window = (ang <= window_hi + GEOM_TOL) | (ang >= 2 * math.pi - GEOM_TOL)
    return strips & window


def edge_test_points(pr, seed):
    """n points of S^{k-1}(C) whose Gram entries sit on the thresholds: row
    i = 1 mod 3 is rho^h times row i // 3 (distance 0 from a rotation, an
    angle of 2 pi h / p on a window end), row i = 2 mod 5 is minus row
    i // 5 (angle pi, the imaginary part a signed zero in exact cases), row
    i = 4 mod 7 is a basis vector (inner products 0); the rest are uniform."""
    rng = S.philox_rng(seed, 34)
    pts = S.sample_complex_sphere(pr.k, pr.n, rng)
    for i in range(1, pr.n):
        if i % 3 == 1:
            pts[i] = pr.rho ** (i % pr.p) * pts[i // 3]
        elif i % 5 == 2:
            pts[i] = -pts[i // 5]
        elif i % 7 == 4:
            pts[i] = np.eye(pr.k)[i % pr.k]
    return pts


def assert_blocked_edges_match(pr, W, Z):
    inner_w = reference_inner_adjacency(W, pr)
    cross = reference_cross_adjacency(W, Z, pr)
    assert np.array_equal(inner_adjacency(W, pr), inner_w)
    assert np.array_equal(cross_adjacency(W, Z, pr), cross)
    n = pr.n
    a = CbeGraph(pr, W, Z).adjacency
    assert np.array_equal(a[:n, :n], inner_w)
    assert np.array_equal(a[n:, n:], reference_inner_adjacency(Z, pr))
    assert np.array_equal(a[:n, n:], cross) and np.array_equal(a[n:, :n], cross.T)


# (n, _GRAM_BLOCK bytes): one vertex; n below the default block of
# 2^15 // n rows; 300 = 2 * 109 + 82 rows; 45 = 6 * 7 + 3 rows; 1-row blocks
GRAM_BLOCKS = [(1, None), (50, None), (300, None), (45, 16 * 45 * 7), (45, 1)]


@pytest.mark.parametrize("p", range(2, 8))
@pytest.mark.parametrize("n, block", GRAM_BLOCKS, ids=lambda x: str(x))
def test_blocked_edge_tests_match_whole_matrix(p, n, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(cbe, "_GRAM_BLOCK", block)
    # ell = p - 1 > p / 2 from p = 3 on: the window passes pi
    for ell in sorted({1, p - 1}):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # mu large for p = 7
            pr = CbeParams(p=p, ell=ell, k=3, n=n, epsilon=0.1, big_k=1.0, seed=p)
        W = edge_test_points(pr, seed=n + p)
        Z = edge_test_points(pr, seed=n + p + 100)
        assert_blocked_edges_match(pr, W, Z)
        if n >= 45:             # the inputs reach both outcomes of each test
            inner = reference_inner_adjacency(W, pr)
            cross = reference_cross_adjacency(W, Z, pr)
            assert inner.any() and not inner.all()
            assert cross.any() and not cross.all()


def test_blocked_edge_tests_match_in_strict_mode(monkeypatch):
    with pytest.warns(UserWarning):     # k = 1 lies outside the advisory hierarchy
        pr = params(p=3, ell=2, k=1, n=100, epsilon=0.4, seed=2, mode="strict")
    g = build_cbe(pr)
    assert_blocked_edges_match(pr, g.W, g.Z)
    monkeypatch.setattr(cbe, "_GRAM_BLOCK", 16 * 100 * 9)
    assert_blocked_edges_match(pr, g.W, g.Z)


# ---------------------------------------------------------------------------
# packed rows and the accessors that read them
# ---------------------------------------------------------------------------

# epsilon at which the strict partition of S^1 into n cells is feasible: the
# cell diameter mu / 4 must reach the chord of an arc of 2 pi / n, and 2 at n = 1
STRICT_EPSILON = {1: 8 * math.sqrt(2), 7: 6.0, 63: 0.7, 65: 0.7, 130: 0.4}


@pytest.mark.parametrize("mode", ["sampled", "strict"])
@pytest.mark.parametrize("n", sorted(STRICT_EPSILON))
def test_packed_graph_matches_references(n, mode):
    """Rows, adjacency and every accessor against the whole-matrix
    references, at class sizes below, at and past a word, and across bit n
    at every offset in a byte (n % 8 = 1, 7, 7, 1, 2)."""
    k, epsilon = (2, 0.5) if mode == "sampled" else (1, STRICT_EPSILON[n])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # large mu, and k = 1
        pr = CbeParams(p=3, ell=1, k=k, n=n, epsilon=epsilon, big_k=1.0, seed=n,
                       mode=mode)
        g = build_cbe(pr)
    inner_w, inner_z = (reference_inner_adjacency(P, pr) for P in (g.W, g.Z))
    cross = reference_cross_adjacency(g.W, g.Z, pr)
    a = np.block([[inner_w, cross], [cross.T, inner_z]])
    want = LabeledGraph.from_adjacency(a).rows
    assert g.rows.shape == want.shape and g.rows.tobytes() == want.tobytes()
    assert g.adjacency.dtype == bool and np.array_equal(g.adjacency, a)
    lg = g.to_labeled_graph()
    assert lg.n == 2 * n and lg.rows is g.rows
    assert g.cross_density() == float(cross.sum()) / (n * n)
    assert np.array_equal(g.cross_degrees(),
                          np.concatenate([cross.sum(axis=1), cross.sum(axis=0)]))
    assert g.max_inner_degree() == max(inner_w.sum(axis=1).max(), inner_z.sum(axis=1).max())
    assert g.inner_edges() == (inner_w.sum() // 2, inner_z.sum() // 2)
    assert g.exact_decisions == 0
    if n >= 63:                 # both outcomes of both tests occur
        assert 0 < cross.sum() < n * n and inner_w.any() and inner_z.any()


def test_build_memory_stays_near_the_rows():
    """At n = 2,500 per class the packed rows take 3.2 MB and the points
    1.3 MB.  The build may add 4 MiB to them: less than one n x n bool
    matrix (6.25 MB), and the whole 2n x 2n one takes 25 MB."""
    pr = CbeParams(p=3, ell=1, k=16, n=2500, seed=1)
    tracemalloc.start()
    try:
        g = build_cbe(pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= g.rows.nbytes + g.W.nbytes + g.Z.nbytes + 2 ** 22


# ---------------------------------------------------------------------------
# the exact fallback: planted pairs on either side of each threshold
# ---------------------------------------------------------------------------

def exact_inner(u, v):
    """<u, v> of the stored floats, exactly, as the Fractions (Re, Im)."""
    re = im = Fraction(0)
    for a, b in zip(u, v):
        ar, ai, br, bi = map(Fraction, (a.real, a.imag, b.real, b.imag))
        re += ar * br + ai * bi
        im += ai * br - ar * bi
    return re, im


def exact_rotation_edge(u, v, params):
    """Rule B1 on the exact <u, v>: 2 - 2 Re(rho^-h <u, v>) <= mu + GEOM_TOL
    for some h in [p-1], the constants being the library's floats."""
    x, y = exact_inner(u, v)
    slack = Fraction(params.mu + GEOM_TOL)
    return any(2 - 2 * (Fraction(r.real) * x - Fraction(r.imag) * y) <= slack
               for r in (params.rho ** -h for h in range(1, params.p)))


def exact_cross_edge(w, z, params):
    """Rule B2 on the exact <w, z>: |Im(rho^h <w, z>)| >= K mu - GEOM_TOL for
    every h, and <w, z> in the closed sector from the float direction
    (cos a, sin a) of a = -GEOM_TOL counterclockwise to that of
    a = 2 pi ell / p + GEOM_TOL."""
    x, y = exact_inner(w, z)
    strip = Fraction(params.big_k * params.mu - GEOM_TOL)
    if any(abs(Fraction(q.real) * y + Fraction(q.imag) * x) < strip
           for q in (params.rho ** h for h in range(params.p))):
        return False

    def turn(a):        # >= 0 iff <w, z> lies on or left of the direction a
        return Fraction(math.cos(a)) * y - Fraction(math.sin(a)) * x

    lo, hi = -GEOM_TOL, 2 * math.pi * params.ell / params.p + GEOM_TOL
    after_lo, before_hi = turn(lo) >= 0, turn(hi) <= 0
    return (after_lo or before_hi) if hi - lo > math.pi else (after_lo and before_hi)


def ulps_from(v, d):
    """The float d ulps above v (below for negative d)."""
    for _ in range(abs(d)):
        v = float(np.nextafter(v, math.copysign(math.inf, d)))
    return v


def straddling(ip, value, threshold, reach=64):
    """Inner products near ip whose float value(x, y) lies on either side of
    threshold: for each x within 6 ulps of Re ip, the two floats y one ulp
    apart between which value - threshold changes sign, and one more on
    each side."""
    found = []
    for dx in range(-6, 7):
        x = ulps_from(ip.real, dx)
        ys = [ulps_from(ip.imag, dy) for dy in range(-reach, reach + 1)]
        above = [value(x, y) > threshold for y in ys]
        for i in range(len(ys) - 1):
            if above[i] != above[i + 1]:
                found += [complex(x, y) for y in ys[max(0, i - 1):i + 3]]
    return found


def point_with_inner(ip, k):
    """A point of C^k, unit up to rounding, whose inner product with e_1 is
    exactly ip, so that every BLAS path computes that Gram entry exactly."""
    z = np.zeros(k, dtype=complex)
    z[0], z[1] = np.conj(ip), math.sqrt(max(0.0, 1.0 - abs(ip) ** 2))
    return z


def planted_pairs():
    """(name, params, kind, inner products) for each threshold: the rotation
    test for each h, each strip (offset into the window), and both window
    ends, with the strips made vacuous, of a window below pi and one past
    it."""
    pr = CbeParams(p=3, ell=1, k=4, n=1, epsilon=0.05, big_k=2.0, seed=0)
    slack, strip = pr.mu + GEOM_TOL, pr.big_k * pr.mu - GEOM_TOL
    cases = []
    for h in range(1, pr.p):
        r = pr.rho ** -h
        cases.append((f"rotation-h{h}", pr, "inner", straddling(
            (1 - slack / 2) * pr.rho ** h,
            lambda x, y: 2 - 2 * (r.real * x - r.imag * y), slack)))
    for h in range(pr.p):
        q = pr.rho ** h
        line = cmath.exp(1j * ((-2 * math.pi * h / pr.p) % math.pi))  # Im(q G) = 0
        side = -1j if h == pr.p - 1 else 1j
        cases.append((f"strip-h{h}", pr, "cross", straddling(
            line * (0.6 + side * strip), lambda x, y: abs(q.real * y + q.imag * x), strip)))
    for ell in (1, 2):
        # K mu - GEOM_TOL < 0: every strip test passes, the window decides
        no_strips = CbeParams(p=3, ell=ell, k=4, n=1, epsilon=1e-12, big_k=1.0, seed=0)
        for end, a in (("start", -GEOM_TOL), ("end", 2 * math.pi * ell / 3 + GEOM_TOL)):
            c, s_ = math.cos(a), math.sin(a)
            cases.append((f"window-ell{ell}-{end}", no_strips, "cross", straddling(
                0.6 * complex(c, s_), lambda x, y: c * y - s_ * x, 0.0)))
    return cases


PLANTED = planted_pairs()


def planted_decisions(params, kind, ips, fallbacks=None):
    """The library's decisions and the Fraction reference's on e_1 against
    each planted point."""
    e1 = np.eye(params.k, dtype=complex)[0]
    Z = np.array([point_with_inner(ip, params.k) for ip in ips])
    if kind == "inner":
        got = inner_adjacency(np.vstack([e1, Z]), params, fallbacks)[0, 1:]
        want = [exact_rotation_edge(e1, z, params) for z in Z]
    else:
        got = cross_adjacency(e1[None], Z, params, fallbacks)[0]
        want = [exact_cross_edge(e1, z, params) for z in Z]
    return got, np.array(want)


@pytest.mark.parametrize("name, params, kind, ips", PLANTED, ids=[c[0] for c in PLANTED])
def test_planted_thresholds_are_decided_exactly(name, params, kind, ips):
    assert len(ips) >= 26             # every x offset found its crossing
    fallbacks = []
    got, want = planted_decisions(params, kind, ips, fallbacks)
    assert sum(fallbacks) == len(ips)
    assert np.array_equal(got, want)
    assert want.any() and not want.all()


def test_planted_thresholds_need_the_exact_path(monkeypatch):
    # with a zero error bound the float margins decide: some planted pair
    # then falls on the wrong side
    monkeypatch.setattr(cbe, "_float_margin", lambda k: 0.0)
    wrong = 0
    for name, params, kind, ips in PLANTED:
        got, want = planted_decisions(params, kind, ips)
        wrong += int(np.sum(got != want))
    assert wrong > 0


def test_exact_references_match_the_float_rules_away_from_thresholds():
    pr = params(p=4, ell=3, k=5, epsilon=0.3, big_k=1.0)
    rng = S.philox_rng(12)
    U = S.sample_complex_sphere(5, 40, rng)
    for u, v in zip(U[:20], U[20:]):
        assert exact_rotation_edge(u, v, pr) == (rotation_witness(inner(u, v), pr) is not None)
        assert exact_cross_edge(u, v, pr) == cross_edge(inner(u, v), pr)


def test_error_bound_is_1e_12_up_to_k_69_then_grows_with_k():
    assert cbe._float_margin(1) == cbe._float_margin(69) == 1e-12
    assert 1e-12 < cbe._float_margin(70) < cbe._float_margin(1000)


@pytest.mark.parametrize("n, seed", [(800, 1), (800, 1009), (2500, 1)])
def test_gen_cbe_bytes_independent_of_the_block_size(n, seed, tmp_path, monkeypatch):
    # one row per block takes the gemv path, the default a gemm
    graphs = []
    monkeypatch.setattr(cli, "build_cbe", lambda pr: graphs.append(build_cbe(pr)) or graphs[-1])
    outputs = []
    for block in (cbe._GRAM_BLOCK, 1):
        monkeypatch.setattr(cbe, "_GRAM_BLOCK", block)
        out = tmp_path / str(block)
        out.mkdir()
        argv = ["gen-cbe", "--p", 3, "--ell", 1, "--k", 16, "--n", n, "--seed", seed,
                "--out", out / "g"]
        assert cli.main([str(a) for a in argv]) == 0
        outputs.append(digests(out))
    assert {"g.edges", "g.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1]
    assert [g.exact_decisions for g in graphs] == [0, 0]


def test_golden_configurations_decide_every_edge_in_float():
    configs = [dict(k=8, n=40, seed=4),
               dict(k=1, n=140, epsilon=0.27, seed=2, mode="strict")]
    configs += [dict(k=k, n=n, seed=1) for k in (8, 16) for n in (20, 30)]
    for config in configs:
        graph = build_cbe(CbeParams(p=3, ell=1, **config))
        assert graph.exact_decisions == 0, config
