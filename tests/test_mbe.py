import itertools
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtlab import mbe
from rtlab import sphere as S
from rtlab.analysis import LabeledGraph, max_clique, read_edge_list, write_edge_list
from rtlab.mbe import (
    BinaryStringFamily,
    BlowupReport,
    MbeParams,
    blowup_sparsify,
    build_base_hypergraph,
    build_mbe,
    find_dense_subconfig,
    lengthy_coordinates,
    proper_edge_coloring,
    related_coordinates,
    shadow_graph,
    sparsify,
)


def mbe_params(ell=2, p=1, q=2, k=6, m=4, epsilon=0.05, t=1, seed=1, **kw):
    return MbeParams(ell=ell, p=p, q=q, k=k, m=m, epsilon=epsilon, t=t,
                     seed=seed, **kw)


def antipodal_points(k, half, seed):
    rng = S.philox_rng(seed, 55)
    pts = S.sample_real_sphere(k + 1, half, rng)
    return np.vstack([pts, -pts])


# ---------------------------------------------------------------------------
# Q_h family
# ---------------------------------------------------------------------------

def test_q_family_ell1():
    fam = BinaryStringFamily(1)
    assert fam.r == 2
    assert fam.q_edges(1) == {(0, 1)}


def test_q_family_ell2():
    fam = BinaryStringFamily(2)
    assert fam.r == 4
    union = fam.q_edges(1) | fam.q_edges(2)
    assert union == set(itertools.combinations(range(4), 2))  # Q_0 = K_4
    assert len(fam.q_edges(1)) == 4  # K_{2,2}
    assert fam.union_alpha([1, 2]) == 1


def test_q_family_alpha_single_coordinate():
    fam = BinaryStringFamily(3)
    assert fam.union_alpha([1]) == 4  # 2^{3-1}


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_q_family_alpha_formula(ell):
    fam = BinaryStringFamily(ell)
    for size in range(ell + 1):
        for coords in itertools.combinations(range(1, ell + 1), size):
            assert fam.union_alpha(coords) == 2 ** (ell - size)


def test_q_family_gate():
    with pytest.raises(S.ResourceLimit):
        BinaryStringFamily(7)
    with pytest.raises(ValueError):
        BinaryStringFamily(0)


# ---------------------------------------------------------------------------
# edge colouring
# ---------------------------------------------------------------------------

def test_coloring_q2():
    col = proper_edge_coloring(2)
    assert col == {frozenset((0, 1)): 1}


@pytest.mark.parametrize("q", [2, 4, 6, 8, 10, 12])
def test_coloring_is_one_factorization(q):
    col = proper_edge_coloring(q)
    assert len(col) == q * (q - 1) // 2
    by_color = {}
    for pair, c in col.items():
        assert 1 <= c <= q - 1
        by_color.setdefault(c, []).append(pair)
    for c, pairs in by_color.items():
        used = [v for pair in pairs for v in pair]
        assert len(pairs) == q // 2 and len(set(used)) == q  # perfect matching
    for v in range(q):
        seen = [c for pair, c in col.items() if v in pair]
        assert len(set(seen)) == q - 1  # properness at every vertex


def test_coloring_rejects_odd():
    with pytest.raises(ValueError):
        proper_edge_coloring(5)


# ---------------------------------------------------------------------------
# related coordinates
# ---------------------------------------------------------------------------

def test_related_count_and_uniqueness():
    pr = MbeParams(ell=7, p=2, q=4, k=4, m=4, epsilon=0.05, seed=0)
    col = proper_edge_coloring(4)
    for i, ip in itertools.combinations(range(4), 2):
        rel = related_coordinates(i, ip, pr, col)
        assert len(rel) == pr.ell - pr.p
        # each h has at most one partner
        for h in range(1, pr.ell + 1):
            assert sum(1 for a, _ in rel if a == h) <= 1


def test_related_second_clause():
    # ell = p (q-1) + 2: the last two coordinates pair with themselves
    pr = MbeParams(ell=5, p=1, q=4, k=4, m=4, epsilon=0.05, seed=0)
    col = proper_edge_coloring(4)
    for i, ip in itertools.combinations(range(4), 2):
        rel = related_coordinates(i, ip, pr, col)
        assert (4, 4) in rel and (5, 5) in rel


def test_related_rejects_same_class():
    pr = mbe_params()
    with pytest.raises(ValueError):
        related_coordinates(1, 1, pr, proper_edge_coloring(pr.q))


# ---------------------------------------------------------------------------
# base hypergraph
# ---------------------------------------------------------------------------

def test_base_hyperedge_antipodal_pair():
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=2)
    rng = S.philox_rng(3, 91)
    e1 = np.array([1.0, 0, 0, 0])
    noise = pr.mu / 10 * rng.standard_normal((2, 4))
    P = np.vstack([e1 + noise[0], -e1 + noise[1]])
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    hg = build_base_hypergraph(pr, points=P)
    assert len(hg.hyperedges) == 1
    assert hg.hyperedge_valid(hg.hyperedges[0])


def test_base_hyperedge_orthogonal_pair_absent():
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=2)
    P = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    hg = build_base_hypergraph(pr, points=P)
    assert hg.hyperedges.shape == (0, 2) and hg.hyperedges.dtype == np.int64


def brute_force_base_edges(P, ell, mu):
    """All r-subsets of P^ell admitting a labelling that satisfies every
    Q_h antipodality constraint."""
    fam = BinaryStringFamily(ell)
    m = P.shape[0]
    vertices = list(itertools.product(range(m), repeat=ell))
    vid = {v: i for i, v in enumerate(vertices)}
    q_edges = {h: fam.q_edges(h) for h in range(1, ell + 1)}

    def ok(labelled):
        for h in range(1, ell + 1):
            for a, b in q_edges[h]:
                xa = P[labelled[a][h - 1]]
                xb = P[labelled[b][h - 1]]
                if np.linalg.norm(xa - xb) < 2 - mu:
                    return False
        return True

    found = set()
    for subset in itertools.combinations(vertices, fam.r):
        for perm in itertools.permutations(subset):
            if ok(perm):
                found.add(frozenset(vid[v] for v in subset))
                break
    return found


def test_base_hypergraph_matches_bruteforce():
    pr = mbe_params(ell=2, p=1, q=2, k=5, m=4)
    P = antipodal_points(pr.k, 2, seed=7)
    hg = build_base_hypergraph(pr, points=P)
    built = {frozenset(e) for e in hg.hyperedges.tolist()}
    expected = brute_force_base_edges(P, pr.ell, pr.mu)
    assert built == expected
    assert len(built) == 4  # one per choice of unordered pair per coordinate
    for edge in hg.hyperedges:
        assert hg.hyperedge_valid(edge)


def test_base_hyperedge_two_exact_antipodal_pairs():
    pr = mbe_params(ell=2, p=1, q=2, k=3, m=4)
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0])
    P = np.vstack([a, b, -a, -b])
    hg = build_base_hypergraph(pr, points=P)
    # vertices combining the pair {a,-a} in coordinate 1 with {b,-b} in 2;
    # vertex (x, y) has id x m + y
    target = frozenset(x * 4 + y for x, y in [(0, 1), (0, 3), (2, 1), (2, 3)])
    assert target in {frozenset(e) for e in hg.hyperedges.tolist()}


def reference_coordinate_assignments(far, fam, h):
    """Reference: the recursive search the level-by-level build replaced.
    Its gate is checked on entry to each call, so it can return
    MAX_ASSIGNMENTS + 1 assignments when the last one ends the search."""
    r = fam.r
    side = [fam.strings[i][h - 1] for i in range(r)]
    m = far.shape[0]
    out = []
    assign = [0] * r

    def dfs(i):
        if len(out) > mbe.MAX_ASSIGNMENTS:
            raise S.ResourceLimit("hyperedge assignment enumeration too large")
        if i == r:
            out.append(tuple(assign))
            return
        for pt in range(m):
            ok = all(far[pt, assign[j]] for j in range(i) if side[j] != side[i])
            if ok:
                assign[i] = pt
                dfs(i + 1)

    dfs(0)
    return out


def random_symmetric_far(rng, m, density):
    upper = np.triu(rng.random((m, m)) < density)
    return upper | upper.T


# (ell, m, density, gate): gate None keeps MAX_ASSIGNMENTS
ASSIGNMENT_CASES = [(ell, m, density, None) for ell in (1, 2, 3)
                    for m in (1, 2, 5, 8) for density in (0.0, 0.3, 0.6, 1.0)
                    if ell < 3 or density < 0.5 or m < 5]
ASSIGNMENT_CASES += [(ell, m, density, gate) for ell in (1, 2, 3)
                     for m in (3, 8) for density in (0.3, 0.6, 1.0)
                     for gate in (3, 40)]


@pytest.mark.parametrize("case", ASSIGNMENT_CASES,
                         ids=lambda c: "-".join(str(x) for x in c))
def test_coordinate_assignments_match_recursive_search(case, monkeypatch):
    ell, m, density, gate = case
    if gate is not None:
        monkeypatch.setattr(mbe, "MAX_ASSIGNMENTS", gate)
    fam = BinaryStringFamily(ell)
    rng = S.philox_rng(m * 100 + ell, 56, int(density * 10))
    for _ in range(3):
        far = random_symmetric_far(rng, m, density)
        for h in range(1, ell + 1):
            try:
                ref = reference_coordinate_assignments(far, fam, h)
            except S.ResourceLimit:
                ref = None
            if ref is None or len(ref) > mbe.MAX_ASSIGNMENTS:
                # the build gates every count above MAX_ASSIGNMENTS
                with pytest.raises(S.ResourceLimit, match="enumeration"):
                    mbe._coordinate_assignments(far, fam, h)
                continue
            got = mbe._coordinate_assignments(far, fam, h)
            assert np.array_equal(got, np.array(ref, dtype=int).reshape(-1, fam.r))
            if ref:
                # a gate at the finished count passes; one below it raises
                with monkeypatch.context() as patch:
                    patch.setattr(mbe, "MAX_ASSIGNMENTS", len(ref))
                    assert np.array_equal(mbe._coordinate_assignments(far, fam, h), got)
                    patch.setattr(mbe, "MAX_ASSIGNMENTS", len(ref) - 1)
                    with pytest.raises(S.ResourceLimit, match="enumeration"):
                        mbe._coordinate_assignments(far, fam, h)


def reference_hyperedges(P, ell, mu):
    """Reference: the recursive search, then itertools.product over the
    coordinates, keeping each vertex set at its first labelling."""
    fam = BinaryStringFamily(ell)
    m = P.shape[0]
    far = S.almost_antipodal(P @ P.T, mu)
    per_coord = [reference_coordinate_assignments(far, fam, h)
                 for h in range(1, ell + 1)]
    seen, edges = set(), []
    for combo in itertools.product(*per_coord):
        edge = tuple(sum(combo[h][i] * m ** (ell - 1 - h) for h in range(ell))
                     for i in range(fam.r))
        if frozenset(edge) not in seen:
            seen.add(frozenset(edge))
            edges.append(edge)
    return edges


# (ell, k, m, epsilon, seed); epsilon 40 makes every pair almost antipodal,
# a point included, so hyperedges repeat vertices.  Each coordinate then has
# m^(2^ell) assignments, so the ell = 3 case takes one point: two would give
# 256^3 combinations, over MAX_ASSIGNMENTS
HYPEREDGE_CASES = [(1, 3, 6, 0.05, 1), (2, 6, 4, 0.05, 2), (2, 10, 8, 0.05, 3),
                   (3, 4, 4, 0.05, 4), (2, 1, 2, 2.0, 1), (2, 4, 3, 40.0, 5),
                   (3, 4, 1, 40.0, 6)]


def case_params(ell, k, epsilon, seed):
    """The params of a case; its mu >= 2 rows lie past sqrt(2), where
    MbeParams warns that no two points are near."""
    advisory = (pytest.warns(UserWarning, match="parameter hierarchy advisory")
                if epsilon / k ** 0.5 >= 2 else nullcontext())
    with advisory:
        return mbe_params(ell=ell, k=k, epsilon=epsilon, seed=seed)


@pytest.mark.parametrize("case", HYPEREDGE_CASES,
                         ids=lambda c: "-".join(str(x) for x in c))
def test_base_hyperedges_match_recursive_build(case):
    ell, k, m, epsilon, seed = case
    pr = case_params(ell, k, epsilon, seed)                     # m comes from P
    P = S.sample_real_sphere(k + 1, m, S.philox_rng(seed, 57))
    if m % 2 == 0:
        P[m // 2:] = -P[:m // 2]
    hg = build_base_hypergraph(pr, points=P)
    ref = reference_hyperedges(P, ell, pr.mu)
    assert ref and hg.hyperedges.tolist() == [list(e) for e in ref]
    assert hg.hyperedges.dtype == np.int64 and hg.hyperedges.shape == (len(ref), 2 ** ell)
    assert np.array_equal(hg.vertices, list(itertools.product(range(m), repeat=ell)))


# ---------------------------------------------------------------------------
# blow-up and sparsification
# ---------------------------------------------------------------------------

def test_blowup_identity_at_t1():
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=4)
    hg = build_base_hypergraph(pr, points=antipodal_points(3, 2, seed=5))
    blown, report = blowup_sparsify(hg, 1, pr.zeta, seed=1)
    assert blown is hg
    assert report.deleted == 0 and report.retained == len(hg.hyperedges)


def test_blowup_copies_and_geometry():
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=4, t=4)
    hg = build_base_hypergraph(pr, points=antipodal_points(3, 2, seed=6))
    blown, report = blowup_sparsify(hg, 4, pr.zeta, seed=2, retention=1.0)
    assert len(blown.vertices) == len(hg.vertices) * 4
    assert report.candidate_copies == len(hg.hyperedges) * 4 ** hg.r
    # blown-up hyperedges keep the antipodality constraints (mu slack)
    for edge in blown.hyperedges[:20]:
        assert blown.hyperedge_valid(edge)


def reference_blowup(base, t, seed, retention):
    """Reference: the per-copy loops the broadcasting replaced.  Returns the
    blown-up vertex tuples and the retained copies, before sparsification."""
    t_root = round(t ** (1 / base.ell))

    def copies(vid):
        return itertools.product(*(range(p * t_root, (p + 1) * t_root)
                                   for p in base.vertices[vid].tolist()))

    vertices = [c for vid in range(len(base.vertices)) for c in copies(vid)]
    index = {v: i for i, v in enumerate(vertices)}
    rng = S.philox_rng(seed, mbe._STREAM_RETAIN)
    retained = []
    for edge in base.hyperedges:
        members = [[index[c] for c in copies(vid)] for vid in edge]
        retained += [combo for combo in itertools.product(*members)
                     if rng.random() < retention]
    return vertices, retained


@pytest.mark.parametrize("ell, m, t", [(1, 4, 4), (1, 4, 9), (2, 2, 4), (2, 2, 9), (2, 4, 4)])
def test_blowup_copies_match_per_copy_loops(ell, m, t, monkeypatch):
    pr = mbe_params(ell=ell, p=1, q=2, k=10, m=m, t=t)
    base = build_base_hypergraph(pr)
    assert len(base.hyperedges)
    monkeypatch.setattr(mbe, "sparsify", lambda edges, zeta, r: (edges, 0))
    blown, report = blowup_sparsify(base, t, pr.zeta, seed=3, retention=0.5)
    vertices, retained = reference_blowup(base, t, 3, 0.5)
    assert blown.vertices.tolist() == [list(v) for v in vertices]
    assert blown.hyperedges.tolist() == [list(e) for e in retained]
    assert blown.hyperedges.dtype == np.int64 and report.retained == len(retained)


def test_blowup_bullet2_sparsity():
    # exhaustive scan after construction: no small dense subconfiguration
    pr = mbe_params(ell=2, p=1, q=2, k=4, m=2, t=4)
    hg = build_base_hypergraph(pr, points=antipodal_points(4, 1, seed=8))
    assert len(hg.hyperedges) == 1
    blown, report = blowup_sparsify(hg, 4, pr.zeta, seed=3, retention=0.5)
    assert report.deleted > 0  # copies of one base edge overlap heavily
    assert find_dense_subconfig(blown.hyperedges, pr.zeta, hg.r) is None
    # independent pairwise check: sharing >= 2 vertices violates the bound
    sets = [frozenset(e) for e in blown.hyperedges.tolist()]
    for e1, e2 in itertools.combinations(sets, 2):
        assert len(e1 & e2) <= 1


def one_at_a_time_sparsify(hyperedges, zeta, r):
    """Reference: a fresh search per deletion, dropping the last hyperedge
    of the first violator until none is left.  Takes an array or a list of
    tuples; returns the kept hyperedges as a list of lists.  The pairwise
    neighbour sets are built once; a deletion drops its row from them and
    renumbers the rows after it, as a rebuild from the kept rows would."""
    kept = np.asarray(hyperedges).tolist()
    edge_sets = [frozenset(e) for e in kept]
    neighbors = pairwise_neighbors(edge_sets)
    deleted = 0
    while True:
        bad = first_violator(edge_sets, neighbors, zeta, r)
        if bad is None:
            return kept, deleted
        gone = bad[-1]
        del kept[gone], edge_sets[gone], neighbors[gone]
        neighbors = [{j - (j > gone) for j in nb if j != gone} for nb in neighbors]
        deleted += 1


# (ell, p, q, k, m, t, retention, seed); the last is the acceptance suite's
# t = 4 blow-up row, where growing in ascending index moved B'
SPARSIFY_CASES = [(2, 1, 2, 10, 2, 4, 0.25, seed) for seed in range(1, 9)]
SPARSIFY_CASES += [(2, 1, 2, 4, 2, 4, 0.5, 3), (2, 1, 2, 6, 6, 4, 0.25, 20)]


@pytest.mark.parametrize("case", SPARSIFY_CASES,
                         ids=lambda c: "-".join(str(x) for x in c))
def test_sparsify_matches_one_at_a_time_loop(case, monkeypatch):
    ell, p, q, k, m, t, retention, seed = case
    pr = MbeParams(ell=ell, p=p, q=q, k=k, m=m, t=t, retention=retention,
                   seed=seed)
    base = build_base_hypergraph(pr)
    blown, report = blowup_sparsify(base, t, pr.zeta, seed, retention)
    monkeypatch.setattr(mbe, "sparsify", one_at_a_time_sparsify)
    ref, ref_report = blowup_sparsify(base, t, pr.zeta, seed, retention)
    assert blown.hyperedges.tolist() == ref.hyperedges
    assert report == ref_report


@st.composite
def overlapping_hypergraphs(draw):
    """(r, hyperedges): up to 9 r-sets of r + 4 vertices, so most pairs
    overlap and some violators are larger than pairs."""
    r = draw(st.integers(2, 4))
    edge = st.sets(st.integers(0, r + 3), min_size=r, max_size=r)
    return r, draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=9))


# a repeated 2-edge is a dense pair; a triangle of 2-edges violates as a
# whole when zeta < 1/2, while none of its pairs does
TRIANGLE = (2, [(0, 1), (1, 2), (0, 2), (0, 1)])
# nine 2-edges holding four 4-cycles and no triangle; at zeta = 1/4 a
# 4-cycle violates and a path does not.  In ascending index the cycle on
# rows 0, 3, 5, 6 comes first, and deleting row 6 also breaks the one on
# rows 0, 6, 7, 8.  Grown in a set's order, row 0's neighbours {3, 6, 8}
# come as 8, 3, 6, that cycle comes first, and row 8 is deleted as well
FOUR_CYCLES = (2, [(6, 7), (0, 4), (0, 5), (4, 6), (3, 5), (3, 4), (3, 7),
                   (2, 3), (2, 6)])


@example(hypergraph=TRIANGLE, zeta=0.25)
@example(hypergraph=FOUR_CYCLES, zeta=0.25)
@settings(max_examples=150, deadline=None)
@given(hypergraph=overlapping_hypergraphs(), zeta=st.floats(0.05, 1.0))
def test_sparsify_matches_loop_on_random_hypergraphs(hypergraph, zeta):
    r, edges = hypergraph
    kept, deleted = sparsify(np.array(edges, dtype=np.int64).reshape(-1, r), zeta, r)
    assert kept.dtype == np.int64 and kept.shape[1] == r
    assert (kept.tolist(), deleted) == one_at_a_time_sparsify(edges, zeta, r)


def pairwise_neighbors(edge_sets):
    """Row i's neighbours: the other rows sharing a vertex with it, from a
    pairwise E x E loop."""
    n = len(edge_sets)
    neighbors = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if edge_sets[i] & edge_sets[j]:
                neighbors[i].add(j)
                neighbors[j].add(i)
    return neighbors


def first_violator(edge_sets, neighbors, zeta, r):
    """The breadth-first search over connected hyperedge subsets, in the
    stated order.  Each level is built from the one before, parents in order
    and each parent's new neighbours in ascending index, and checked in that
    order.  A level's candidates are checked as they are found: the level
    before is clean by then, so the first violator found is the first in
    that order.  Returns it as a sorted tuple, or None."""
    frontier = [(frozenset((i,)), e) for i, e in enumerate(edge_sets)]
    seen = {chosen for chosen, _ in frontier}
    while frontier:                 # every subset in frontier is clean
        nxt = []
        for chosen, verts in frontier:
            if len(chosen) >= 8 or len(verts) > r ** 3:
                continue
            for j in sorted(set().union(*(neighbors[i] for i in chosen)) - chosen):
                cand = chosen | {j}
                if cand in seen:
                    continue
                seen.add(cand)
                cand_verts = verts | edge_sets[j]
                if len(cand_verts) <= r ** 3 and (
                        len(cand_verts) + (1 + zeta - r) * (len(cand) - 1) < r - S.GEOM_TOL):
                    return tuple(sorted(cand))
                nxt.append((cand, cand_verts))
        frontier = nxt
    return None


def reference_find_dense_subconfig(hyperedges, zeta, r):
    """Reference: first_violator on neighbour sets from a pairwise loop."""
    edge_sets = [frozenset(e) for e in hyperedges]
    return first_violator(edge_sets, pairwise_neighbors(edge_sets), zeta, r)


@example(hypergraph=TRIANGLE, zeta=0.25)
@example(hypergraph=FOUR_CYCLES, zeta=0.25)
@settings(max_examples=150, deadline=None)
@given(hypergraph=overlapping_hypergraphs(), zeta=st.floats(0.05, 1.0))
def test_dense_search_matches_pairwise_reference(hypergraph, zeta):
    r, edges = hypergraph
    assert (find_dense_subconfig(edges, zeta, r)
            == reference_find_dense_subconfig(edges, zeta, r))


def test_blowup_full_retention():
    # every one of the 1024 copies retained: the one-at-a-time loop takes
    # minutes here and deletes 1000 of them
    pr = MbeParams(ell=2, p=1, q=2, k=10, m=4, t=4, retention=1.0, seed=1)
    base = build_base_hypergraph(pr)
    blown, report = blowup_sparsify(base, pr.t, pr.zeta, pr.seed, pr.retention)
    assert report.retained == report.candidate_copies == 1024
    assert report.deleted == 1000
    assert find_dense_subconfig(blown.hyperedges, pr.zeta, base.r) is None
    sets = [frozenset(e) for e in blown.hyperedges.tolist()]
    for e1, e2 in itertools.combinations(sets, 2):
        assert len(e1 & e2) <= 1


def test_blowup_covering_property():
    # transversal copies of base hyperedges survive with high frequency
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=8, t=4)
    hg = build_base_hypergraph(pr, points=antipodal_points(3, 4, seed=9))
    blown, _ = blowup_sparsify(hg, 4, pr.zeta, seed=4, retention=0.5)
    kept_base = set()
    for edge in blown.hyperedges.tolist():
        base = frozenset(v // 4 for v in edge)    # copy v of base vertex v // t
        kept_base.add(base)
    rng = S.philox_rng(10, 1)
    hits = 0
    for _ in range(20):
        base_edge = hg.hyperedges[int(rng.integers(len(hg.hyperedges)))]
        base_pts = frozenset(hg.vertices[base_edge, 0].tolist())
        hits += base_pts in kept_base
    assert hits / 20 >= 0.95


def test_blowup_rejects_bad_t():
    pr = mbe_params(ell=2, p=1, q=2, k=4, m=2)
    hg = build_base_hypergraph(pr, points=antipodal_points(4, 1, seed=8))
    for t in (3, 0, (10 ** 20 + 1) ** 2 + 1):
        with pytest.raises(ValueError, match="perfect"):
            blowup_sparsify(hg, t, pr.zeta, seed=0)
    # a perfect square past float precision passes the root check and stops
    # at the vertex gate, before any copy or point is made
    with pytest.raises(S.ResourceLimit, match="N t blown-up vertices"):
        blowup_sparsify(hg, (10 ** 20 + 1) ** 2, pr.zeta, seed=0)


# (t, ell, whether t is a perfect ell-th power)
T_ROOT_CASES = [((10 ** 20 + 1) ** 2, 2, True), ((10 ** 20 + 1) ** 2 + 1, 2, False),
                ((10 ** 20 + 1) ** 2 - 1, 2, False), (10 ** 400, 2, True),
                (10 ** 400, 3, False), (3 ** 18, 6, True), (3 ** 18 + 1, 6, False),
                (1, 6, True), (2, 6, False), (7, 1, True), (0, 2, False)]


@pytest.mark.parametrize("t, ell, perfect", T_ROOT_CASES, ids=[
    "(10^20+1)^2-2", "(10^20+1)^2+1-2", "(10^20+1)^2-1-2", "10^400-2", "10^400-3",
    "3^18-6", "3^18+1-6", "1-6", "2-6", "7-1", "0-2"])
def test_t_must_be_an_exact_ell_th_power(t, ell, perfect):
    if perfect:
        assert mbe_params(ell=ell, t=t).t == t
    else:
        with pytest.raises(ValueError, match="t must be a perfect ell-th power"):
            mbe_params(ell=ell, t=t)


def test_empty_hypergraph_through_blowup_shadow_and_file(tmp_path):
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=2, t=4)
    P = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    base = build_base_hypergraph(pr, points=P)
    blown, report = blowup_sparsify(base, 4, pr.zeta, seed=1)
    assert report == BlowupReport(0, 0, 0, 0)
    assert blown.hyperedges.shape == (0, 2) and blown.hyperedges.dtype == np.int64
    assert len(blown.vertices) == 8
    shadow = shadow_graph(blown)
    assert shadow.shape == (8, 8) and not shadow.any()
    blown.write_hyperedges(tmp_path / "e.hyper")
    assert (tmp_path / "e.hyper").read_text() == "# r=2 vertices=8\n"


# ---------------------------------------------------------------------------
# shadow graph
# ---------------------------------------------------------------------------

def test_shadow_single_hyperedge_is_complete():
    pr = mbe_params(ell=2, p=1, q=2, k=4, m=2)
    hg = build_base_hypergraph(pr, points=antipodal_points(4, 1, seed=11))
    cert = max_clique(LabeledGraph.from_adjacency(shadow_graph(hg)))
    assert cert.size == hg.r  # K_r


def reference_shadow_graph(hypergraph):
    """Reference: the per-hyperedge pair loop that the column-pair
    assignments replaced."""
    n = len(hypergraph.vertices)
    adjacency = np.zeros((n, n), dtype=bool)
    for edge in hypergraph.hyperedges.tolist():
        for a, b in itertools.combinations(sorted(set(edge)), 2):
            adjacency[a, b] = adjacency[b, a] = True
    return adjacency


# the repeated-vertex cases of HYPEREDGE_CASES and one more at mu = 2
SHADOW_REPEAT_CASES = [c for c in HYPEREDGE_CASES if c[3] >= 2.0] + [(2, 1, 3, 2.0, 4)]


@pytest.mark.parametrize("case", SHADOW_REPEAT_CASES,
                         ids=lambda c: "-".join(str(x) for x in c))
def test_shadow_matches_pair_loop_on_repeated_vertices(case):
    ell, k, m, epsilon, seed = case
    pr = case_params(ell, k, epsilon, seed)
    P = S.sample_real_sphere(k + 1, m, S.philox_rng(seed, 57))
    if m % 2 == 0:
        P[m // 2:] = -P[:m // 2]
    hg = build_base_hypergraph(pr, points=P)
    if pr.mu >= 2.0:        # every pair is far, a point and itself included
        assert any(len(set(e)) < hg.r for e in hg.hyperedges.tolist())
    assert np.array_equal(shadow_graph(hg), reference_shadow_graph(hg))


# (ell, m, t, retention)
BLOWN_SHADOW_CASES = [(1, 4, 4, 0.5), (1, 4, 9, 0.25), (2, 2, 4, 0.5), (2, 4, 4, 0.25)]


@pytest.mark.parametrize("ell, m, t, retention", BLOWN_SHADOW_CASES)
def test_shadow_matches_pair_loop_after_blowup(ell, m, t, retention):
    pr = mbe_params(ell=ell, p=1, q=2, k=10, m=m, t=t)
    blown, _ = blowup_sparsify(build_base_hypergraph(pr), t, pr.zeta, seed=5,
                               retention=retention)
    assert len(blown.hyperedges)
    assert np.array_equal(shadow_graph(blown), reference_shadow_graph(blown))


def test_shadow_empty():
    pr = mbe_params(ell=1, p=1, q=2, k=3, m=2)
    P = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert not shadow_graph(build_base_hypergraph(pr, points=P)).any()


def test_shadow_clique_bound_and_hyperedge_containment():
    pr = mbe_params(ell=2, p=1, q=2, k=6, m=8)
    hg = build_base_hypergraph(pr, points=antipodal_points(6, 4, seed=12))
    g = LabeledGraph.from_adjacency(shadow_graph(hg))
    cert = max_clique(g)
    assert cert.exhaustive and cert.size <= hg.r
    # every maximal clique lies inside a single hyperedge
    import networkx as nx
    G = nx.Graph([tuple(e) for block in g.edges() for e in block.tolist()])
    edge_sets = [frozenset(e) for e in hg.hyperedges]
    for clique in nx.find_cliques(G):
        assert any(set(clique) <= es for es in edge_sets)


# ---------------------------------------------------------------------------
# lengthy coordinates
# ---------------------------------------------------------------------------

def test_lengthy_trivial_cases():
    pr = mbe_params(ell=2, p=1, q=2, k=3, m=4)
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0])
    P = np.vstack([a, b, -a, -b])
    hg = build_base_hypergraph(pr, points=P)
    assert lengthy_coordinates(hg, [], pr.mu) == set()
    assert lengthy_coordinates(hg, [0], pr.mu) == set()
    # two vertices antipodal in coordinate 1 only: (a, b) vs (-a, b)
    v1 = 0 * 4 + 1
    v2 = 2 * 4 + 1
    assert lengthy_coordinates(hg, [v1, v2], pr.mu) == {1}


# ---------------------------------------------------------------------------
# the final graph
# ---------------------------------------------------------------------------

def test_mbe_params_validation():
    with pytest.raises(ValueError):
        mbe_params(q=3)
    with pytest.raises(ValueError):
        mbe_params(ell=2, p=1, q=4)   # ell < p (q-1)
    with pytest.raises(ValueError):
        mbe_params(t=3)               # not a perfect square for ell = 2
    with pytest.raises(ValueError):
        mbe_params(m=5)               # antipodal mode needs even m


def test_mbe_params_advise_when_no_two_points_are_near():
    with pytest.warns(UserWarning, match=r"parameter hierarchy advisory: mu=1\.5000 > "
                      r"sqrt\(2\); no two points are near") as record:
        mbe_params(k=1, epsilon=1.5)
    assert [w.filename for w in record] == [__file__]
    # at mu = sqrt(2) a point is still near itself; every acceptance, golden
    # and benchmark setting has mu <= 0.2
    quiet = mbe_params(k=1, epsilon=2 ** 0.5)
    assert quiet.mu == 2 ** 0.5
    # through dataclasses.replace, whose frames lie in dataclasses.py
    with pytest.warns(UserWarning, match="parameter hierarchy advisory") as record:
        replace(quiet, epsilon=1.5)
    assert [w.filename for w in record] == [__file__]


def test_mbe_complete_cross_when_no_related():
    # ell = p = 1, q = 2: related set is empty, cross pair complete
    pr = mbe_params(ell=1, p=1, q=2, k=6, m=8)
    g = build_mbe(pr)
    N = g.class_size
    assert g.pair_density(0, 1) == 1.0
    cert = max_clique(g.to_labeled_graph())
    assert cert.exhaustive
    assert cert.size <= g.omega_bound() == 4
    assert cert.size == 4  # inner matching edge in each class joins completely


def test_mbe_cross_density():
    pr = mbe_params(ell=2, p=1, q=2, k=12, m=8, seed=3)
    g = build_mbe(pr)
    assert abs(g.pair_density(0, 1) - 0.5) <= 0.2


def test_mbe_clique_bound_314():
    pr = MbeParams(ell=3, p=1, q=4, k=8, m=4, epsilon=0.05, seed=5)
    g = build_mbe(pr)
    assert g.n == 4 ** 3 * 4 // 4 * 4  # m^ell * t * q
    bound = g.omega_bound()
    assert bound == 12
    cert = max_clique(g.to_labeled_graph(), cutoff=bound)
    assert cert.upper_bound == bound


def test_mbe_clique_budget_lemmas():
    # for every maximal clique A: |A n V_i| <= 2^{|L_i|} and sum |L_i| <= ell + p
    import networkx as nx
    pr = mbe_params(ell=2, p=1, q=2, k=6, m=4, seed=7)
    g = build_mbe(pr)
    lg = g.to_labeled_graph()
    G = nx.Graph([tuple(e) for block in lg.edges() for e in block.tolist()])
    G.add_nodes_from(range(lg.n))
    N = g.class_size
    for clique in nx.find_cliques(G):
        if len(clique) < 2:
            continue
        total_lengthy = 0
        for i in range(pr.q):
            local = [v - i * N for v in clique if i * N <= v < (i + 1) * N]
            lengthy = lengthy_coordinates(g.hypergraph, local, pr.mu)
            total_lengthy += len(lengthy)
            assert len(local) <= 2 ** len(lengthy)
        if total_lengthy > pr.ell + pr.p:
            # a budget violation would mean four sphere points forming the
            # impossible rhombus configuration; localize before failing
            from rtlab.sphere import rhombus_search
            pts = g.hypergraph.points
            witness = rhombus_search(pts, pts, pr.mu)
            raise AssertionError(
                f"lengthy budget violated; rhombus witness: {witness}")


def test_mbe_determinism():
    pr = mbe_params(ell=2, p=1, q=2, k=6, m=4, seed=9)
    g1 = build_mbe(pr)
    g2 = build_mbe(pr)
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_mbe_exports(tmp_path):
    pr = mbe_params(ell=2, p=1, q=2, k=6, m=4, seed=9)
    g = build_mbe(pr)
    lg = g.to_labeled_graph()
    write_edge_list(tmp_path / "g.edges", lg, classes=f"classes: 2 x {g.class_size}")
    g.hypergraph.write_hyperedges(tmp_path / "g.hyper")
    back = read_edge_list(tmp_path / "g.edges")
    assert back.n == g.n and np.array_equal(back.rows, lg.rows)
    lines = [l for l in (tmp_path / "g.hyper").read_text().splitlines()
             if not l.startswith("#")]
    assert all(len(l.split()) == g.hypergraph.r for l in lines)
    header = g.header_dict()
    assert header["params"]["r"] == 4
