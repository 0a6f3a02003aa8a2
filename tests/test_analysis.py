import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rtlab import sphere as S
from rtlab.analysis import (
    LabeledGraph,
    _colour_bound,
    _degeneracy_order,
    _find_clique,
    _induced_rows,
    _set_edges,
    _unpack_rows,
    _zero_rows,
    density_report,
    max_clique,
    p_independence,
    read_edge_list,
    rho_star,
    theorem13_density,
    write_edge_list,
)
from rtlab.cbe import CbeParams, build_cbe
from rtlab.sphere import ResourceLimit


# ---------------------------------------------------------------------------
# graph helpers and oracles
# ---------------------------------------------------------------------------

def from_edges(n: int, edges) -> LabeledGraph:
    """The graph with the given (u, v) pairs, a sequence or a k x 2 array,
    its bits set by the scatter read_edge_list uses.  A repeated pair sets
    the same bits again."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = ends.T
    # a negative id reads as 2^64 - |id|, so one test bounds both sides
    outside = ends.view(np.uint64) >= n
    bad = (u == v) | outside[:, 0] | outside[:, 1]
    if bad.any():
        u, v = ends[bad.argmax()].tolist()
        raise ValueError("loops are not allowed" if u == v else f"edge ({u},{v}) out of range")
    rows = _zero_rows(n)
    _set_edges(rows, ends)
    return LabeledGraph(n, rows)


def subgraph(g: LabeledGraph, vertices) -> LabeledGraph:
    """The subgraph induced on vertices, renumbered 0.. in the given order."""
    vs = list(vertices)
    if any(not 0 <= v < g.n for v in vs):
        raise ValueError("subgraph vertex out of range")
    return LabeledGraph(len(vs), _induced_rows(g.rows, vs))


def complete_join(graphs) -> LabeledGraph:
    """Disjoint union plus all cross edges between distinct inputs."""
    graphs = list(graphs)
    total = sum(g.n for g in graphs)
    matrix = np.ones((total, total), dtype=bool)
    off = 0
    for g in graphs:
        matrix[off:off + g.n, off:off + g.n] = np.unpackbits(
            g.rows, axis=1, count=g.n, bitorder="little")
        off += g.n
    return LabeledGraph.from_adjacency(matrix)


def brute_max_clique(g: LabeledGraph) -> int:
    """Enumerate every clique by DFS over least-vertex extensions."""
    adj = _unpack_rows(g.rows)
    best = 0

    def grow(clique_size, cand):
        nonlocal best
        best = max(best, clique_size)
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(clique_size + 1, adj[v] & cand)

    grow(0, (1 << g.n) - 1)
    return best


def brute_alpha_p(g: LabeledGraph, p: int) -> int:
    """Exhaustive over all vertex subsets."""
    adj = _unpack_rows(g.rows)

    def kp_free(sub):
        for combo in itertools.combinations(sub, p):
            if all((adj[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)):
                return False
        return True

    best = 0
    verts = list(range(g.n))
    for r in range(g.n, -1, -1):
        if r <= best:
            break
        for sub in itertools.combinations(verts, r):
            if kp_free(sub):
                best = r
                break
    return best


def reference_packing_bound(g: LabeledGraph, p: int) -> int:
    """n minus the number of vertex-disjoint K_p copies packed greedily, each
    found lowest-first by a search with no pruning."""
    adj = _unpack_rows(g.rows)

    def find(mask, t):
        if t == 0:
            return []
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            sub = find(adj[v] & rest, t - 1)
            if sub is not None:
                return [v, *sub]
        return None

    mask, packed = (1 << g.n) - 1, 0
    while (clique := find(mask, p)) is not None:
        packed += 1
        for v in clique:
            mask &= ~(1 << v)
    return g.n - packed


def reference_p_independence(g: LabeledGraph, p: int, exact_limit: int = 40):
    """p_independence as it was before the K_p-free shortcut: exhaustive
    search up to exact_limit vertices, else greedy and packing bounds."""
    adj = _unpack_rows(g.rows)
    if g.n <= exact_limit:
        order = sorted(range(g.n), key=lambda v: -adj[v].bit_count())
        best = 0

        def dfs(idx: int, chosen: int, count: int):
            nonlocal best
            if count + (g.n - idx) <= best:
                return
            if idx == g.n:
                best = max(best, count)
                return
            v = order[idx]
            if _find_clique(adj, adj[v] & chosen, p - 1) is None:
                dfs(idx + 1, chosen | (1 << v), count + 1)
            dfs(idx + 1, chosen, count)

        dfs(0, 0, 0)
        return best, best, True

    chosen = 0
    count = 0
    for v in sorted(range(g.n), key=lambda u: adj[u].bit_count()):
        if _find_clique(adj, adj[v] & chosen, p - 1) is None:
            chosen |= 1 << v
            count += 1
    mask = (1 << g.n) - 1
    packed = 0
    while True:
        clique = _find_clique(adj, mask, p)
        if clique is None:
            break
        packed += 1
        for v in clique:
            mask &= ~(1 << v)
    return count, g.n - packed, False


def colour_bound(g: LabeledGraph) -> int:
    """Colours of the smallest-last colouring on the graph's own labels."""
    return _colour_bound(_unpack_rows(g.rows), _degeneracy_order(g.rows))


def random_graph(n, density, seed):
    rng = S.philox_rng(seed, 77)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return from_edges(n, edges)


def complete_graph(n):
    return from_edges(n, list(itertools.combinations(range(n), 2)))


# ---------------------------------------------------------------------------
# max clique
# ---------------------------------------------------------------------------

def test_max_clique_k5():
    cert = max_clique(complete_graph(5))
    assert cert.size == 5 and cert.exhaustive
    assert cert.witness == (0, 1, 2, 3, 4)


def test_max_clique_empty_graph():
    g = from_edges(10, [])
    cert = max_clique(g)
    assert cert.size == 1 and cert.exhaustive


def test_max_clique_matches_bruteforce_g50():
    g = random_graph(50, 0.5, seed=123)
    cert = max_clique(g)
    assert cert.exhaustive
    assert cert.size == brute_max_clique(g)
    adj = _unpack_rows(g.rows)
    assert all((adj[a] >> b) & 1 for a, b in itertools.combinations(cert.witness, 2))


def test_max_clique_matches_bruteforce_small():
    # 200 random instances on up to 20 vertices
    for seed in range(200):
        g = random_graph(12 + seed % 9, 0.2 + (seed % 7) / 10, seed)
        assert max_clique(g).size == brute_max_clique(g), seed


def test_max_clique_cutoff_semantics():
    g = complete_graph(6)
    over = max_clique(g, cutoff=3)
    assert over.size >= 4 and not over.exhaustive and over.upper_bound is None
    under = max_clique(g, cutoff=10)
    assert under.upper_bound == 10 and not under.exhaustive
    assert under.size <= 10


def test_max_clique_resource_gate():
    g = from_edges(5001, [])
    with pytest.raises(ResourceLimit):
        max_clique(g)
    cert = max_clique(g, cutoff=4)
    assert cert.upper_bound == 4


# ---------------------------------------------------------------------------
# p-independence
# ---------------------------------------------------------------------------

def test_alpha_2_of_complete_graph():
    lb, ub, exact = p_independence(complete_graph(7), 2)
    assert (lb, ub, exact) == (1, 1, True)


def test_alpha_3_of_complete_graph():
    lb, ub, exact = p_independence(complete_graph(7), 3)
    assert (lb, ub, exact) == (2, 2, True)


def test_alpha_2_of_c5():
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert brute_alpha_p(c5, 2) == 2
    assert p_independence(c5, 2) == (2, 2, True)


@pytest.mark.parametrize("seed,p", [(1, 2), (2, 3), (3, 3), (4, 4), (5, 2)])
def test_p_independence_exact_matches_bruteforce(seed, p):
    g = random_graph(13, 0.5, seed)
    expected = brute_alpha_p(g, p)
    assert p_independence(g, p) == (expected, expected, True)


def test_p_independence_heuristic_brackets_exact():
    g = random_graph(18, 0.4, seed=9)
    exact = p_independence(g, 3)[0]
    lb, ub, flag = p_independence(g, 3, exact_limit=5)
    assert not flag
    assert lb <= exact <= ub


@pytest.mark.parametrize("seed", range(6))
def test_p_independence_packing_matches_unpruned_reference(seed):
    g = random_graph(28, 0.25 + 0.1 * seed, seed=seed + 40)
    for p in (2, 3, 4):
        assert p_independence(g, p, exact_limit=0)[1] == reference_packing_bound(g, p)


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def random_bipartite(a, b, density, seed):
    rng = S.philox_rng(seed, 78)
    return from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)
                              if rng.random() < density])


K_P_FREE = {
    # (graph, p) with the colouring bound below p, so the shortcut fires
    "cbe-32": (build_cbe(CbeParams(p=3, ell=1, k=16, n=16, seed=1)).to_labeled_graph(), 3),
    "cbe-200": (build_cbe(CbeParams(p=3, ell=1, k=16, n=100, seed=1)).to_labeled_graph(), 3),
    "cycle-12": (cycle(12), 3),
    "cycle-13": (cycle(13), 4),
    "cycle-65": (cycle(65), 4),
    "cycle-128": (cycle(128), 3),
    "bipartite-15-20": (random_bipartite(15, 20, 0.5, 1), 3),
    "bipartite-40-50": (random_bipartite(40, 50, 0.3, 2), 3),
    "complete-6": (complete_graph(6), 7),
    "empty-9": (from_edges(9, []), 2),
}


@pytest.mark.parametrize("name", sorted(K_P_FREE))
@pytest.mark.parametrize("exact_limit", [0, 40, 200])
def test_p_independence_shortcut_on_kp_free_graphs(name, exact_limit):
    g, p = K_P_FREE[name]
    assert colour_bound(g) < p
    expected = (g.n, g.n, g.n <= exact_limit)
    assert reference_p_independence(g, p, exact_limit) == expected
    assert p_independence(g, p, exact_limit) == expected


@pytest.mark.parametrize("graph, p", [
    (cycle(3), 3),
    (cycle(13), 3),             # odd cycle: K_3-free, but the bound is 3
    (complete_graph(7), 4),
    (random_graph(18, 0.4, seed=9), 3),
    (random_graph(30, 0.3, seed=11), 3),
    (random_graph(60, 0.2, seed=12), 3),
    (random_graph(60, 0.5, seed=13), 4),
], ids=["cycle-3", "cycle-13", "complete-7", "g18", "g30", "g60-sparse", "g60-dense"])
@pytest.mark.parametrize("exact_limit", [0, 40])
def test_p_independence_matches_reference_without_shortcut(graph, p, exact_limit):
    assert colour_bound(graph) >= p
    expected = reference_p_independence(graph, p, exact_limit)
    assert p_independence(graph, p, exact_limit) == expected


def test_p_independence_validation():
    with pytest.raises(ValueError):
        p_independence(complete_graph(3), 1)


# ---------------------------------------------------------------------------
# density report and complete join
# ---------------------------------------------------------------------------

def test_density_report_k33():
    edges = [(u, v) for u in range(3) for v in range(3, 6)]
    g = from_edges(6, edges)
    rep = density_report(g)
    assert rep.edge_count == 9
    assert math.isclose(rep.global_density, 9 / 15)


def test_density_report_empty():
    g = from_edges(4, [])
    rep = density_report(g)
    assert rep.global_density == 0.0
    assert rep.edge_count == 0


def test_complete_join_two_vertices():
    v = from_edges(1, [])
    j = complete_join([v, v])
    assert j.n == 2 and _unpack_rows(j.rows) == [0b10, 0b01]


def test_complete_join_k2_k3():
    j = complete_join([complete_graph(2), complete_graph(3)])
    assert max_clique(j).size == 5
    assert j.edge_count() == 10


def test_join_of_free_graphs_is_free():
    # a K_4-free graph joined with a K_3-free graph is K_6-free
    g1 = random_graph(8, 0.45, seed=31)
    while brute_max_clique(g1) > 3:
        g1 = random_graph(8, 0.3, seed=31 + g1.edge_count())
    g2 = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    j = complete_join([g1, g2])
    cert = max_clique(j)
    assert cert.exhaustive and cert.size <= 5
    assert cert.size == brute_max_clique(g1) + brute_max_clique(g2)


def test_join_additivity_random():
    for seed in range(4):
        parts = [random_graph(6, 0.5, seed * 3 + i) for i in range(3)]
        joined = complete_join(parts)
        assert max_clique(joined).size == sum(max_clique(p).size for p in parts)


# ---------------------------------------------------------------------------
# rational density formulas
# ---------------------------------------------------------------------------

def test_rho_star_3_5():
    value, (t, r) = rho_star(3, 5)
    assert value == Fraction(1, 6)
    assert (t, r) == (1, 0)


@pytest.mark.parametrize("t", range(1, 11))
def test_rho_star_p3_family(t):
    value, _ = rho_star(3, 3 * t + 2)
    assert value == Fraction(5 * t - 4, 5 * t + 1)


@pytest.mark.parametrize("t", range(1, 11))
def test_rho_star_p4_family(t):
    value, _ = rho_star(4, 4 * t + 2)
    assert value == Fraction(7 * t - 6, 7 * t + 1)


def test_rho_star_low_clique_family():
    for p in range(2, 11):
        for ell in range(1, p // 2 + 1):
            value, _ = rho_star(p, p + ell + 1)
            assert value == Fraction(ell, 2 * p)


def test_rho_star_rejects_small_q():
    with pytest.raises(ValueError):
        rho_star(3, 4)


def test_rho_star_monotone_in_q():
    for p in range(2, 11):
        prev = Fraction(-1)
        for q in range(p + 2, 61):
            value, _ = rho_star(p, q)
            assert value >= prev
            prev = value


def test_theorem13_separation_example():
    rep = theorem13_density(9, 3, 4)
    assert rep.p_star == 512 and rep.q_star == 523
    assert rep.lower_bound == Fraction(6, 512)
    assert rep.rho_star_value == Fraction(5, 512)
    assert rep.exceeds_conjecture and rep.strict_expected
    assert rep.equality_window  # q (q-2) = 8 <= 2^p = 8 <= 16 = q^2


def test_theorem13_q2_not_strict():
    rep = theorem13_density(3, 1, 2)
    assert rep.lower_bound == Fraction(1, 2 ** (3 - 1)) * Fraction(1, 2)
    assert not rep.strict_expected
    assert not rep.exceeds_conjecture  # bound meets rho_star exactly at q = 2
    assert rep.lower_bound == rep.rho_star_value


def test_theorem13_validation():
    with pytest.raises(ValueError):
        theorem13_density(9, 3, 5)  # odd q
    with pytest.raises(ValueError):
        theorem13_density(2, 1, 4)  # ell < p (q-1)


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------

def assert_rows(g: LabeledGraph, matrix):
    """g's rows are matrix's, packed: the stored layout, zero padding bits
    past n (_degeneracy_order counts whole words), a zero diagonal, and
    each entry's bit."""
    n = len(matrix)
    assert g.n == n
    assert g.rows.dtype == np.uint8 and g.rows.shape == (n, 8 * ((n + 63) // 64))
    bits = np.unpackbits(g.rows, axis=1, bitorder="little")
    assert not bits[:, n:].any() and not bits[range(n), range(n)].any()
    rows = [sum(1 << int(v) for v in np.flatnonzero(matrix[u])) for u in range(n)]
    assert _unpack_rows(g.rows) == rows
    assert g.edge_count() == int(matrix.sum()) // 2
    assert [tuple(e) for block in g.edges() for e in block.tolist()] \
        == [(u, v) for u in range(n) for v in range(u + 1, n) if matrix[u, v]]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 128, 129, 203])
def test_from_adjacency_matches_per_entry_rows(n, tmp_path):
    # every constructor gives the per-entry rows of the same graph
    rng = S.philox_rng(n, 78)
    upper = np.triu(rng.random((n, n)) < 0.3, 1)
    matrix = upper | upper.T
    g = LabeledGraph.from_adjacency(matrix)
    assert_rows(g, matrix)
    edges = [(u, v) for u in range(n) for v in range(n) if upper[u, v]]
    assert_rows(from_edges(n, edges), matrix)
    # as an array, in reverse order and orientation
    assert_rows(from_edges(n, np.array(edges, dtype=int).reshape(-1, 2)[::-1, ::-1]),
                matrix)
    # g as the subgraph induced on n of n + 70 vertices, placed out of order
    big = np.triu(rng.random((n + 70, n + 70)) < 0.3, 1)
    pos = rng.permutation(n + 70)[:n]
    big[np.ix_(pos, pos)] = matrix
    big = np.triu(big, 1) | np.triu(big, 1).T
    assert_rows(subgraph(LabeledGraph.from_adjacency(big), pos.tolist()), matrix)
    # the join of g's first k and last n - k vertices
    k = n // 3
    joined = matrix.copy()
    joined[:k, k:] = joined[k:, :k] = True
    assert_rows(complete_join([LabeledGraph.from_adjacency(matrix[:k, :k]),
                               LabeledGraph.from_adjacency(matrix[k:, k:])]), joined)
    write_edge_list(tmp_path / "g.edges", g)
    assert_rows(read_edge_list(tmp_path / "g.edges"), matrix)
    if n >= 2:
        with pytest.raises(ValueError):
            LabeledGraph.from_adjacency(matrix | np.eye(n, dtype=bool))
        upper[0, 1] = True
        with pytest.raises(ValueError):
            LabeledGraph.from_adjacency(upper)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 5)], "loops are not allowed"),
    ([(0, 1), (0, 5), (2, 2)], r"edge \(0,5\) out of range"),
    ([(1, 2), (-1, 0), (1, 1)], r"edge \(-1,0\) out of range"),
    ([(3, 3)], "loops are not allowed"),
])
def test_from_edges_reports_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        from_edges(3, edges)


def test_edge_list_roundtrip(tmp_path):
    g = random_graph(15, 0.4, seed=2)
    path = tmp_path / "g.edges"
    write_edge_list(path, g, comments=["format test"])
    h = read_edge_list(path)
    assert h.n == g.n
    assert np.array_equal(h.rows, g.rows)
