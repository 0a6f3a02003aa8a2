"""max_clique's numpy set-up against the per-bit code it replaced.

The reference functions below are the earlier pure-Python degeneracy order,
bit-by-bit relabel, greedy seed and the whole search built on them, with
neither the colouring bound nor the early stops it allows.  The numpy kernels
must give the same order, the same relabelled rows, the same greedy seed and
an equal CliqueCertificate, ties included, and the smallest-last colouring
count must be at least the size of every certified clique.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import colour_bound, cycle, from_edges, subgraph

from rtlab import analysis
from rtlab import sphere as S
from rtlab.analysis import (
    CliqueCertificate,
    LabeledGraph,
    _colour_bound,
    _degeneracy_order,
    _greedy_clique,
    _induced_rows,
    _unpack_rows,
    max_clique,
    p_independence,
    read_edge_list,
    write_edge_list,
)
from rtlab.cbe import CbeParams, build_cbe
from rtlab.cli import main
from rtlab.mbe import MbeParams, build_mbe


# ---------------------------------------------------------------------------
# reference oracles: the per-bit set-up and the search on top of it
# ---------------------------------------------------------------------------

def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_degeneracy_order(g: LabeledGraph) -> list[int]:
    adj = _unpack_rows(g.rows)
    deg = [row.bit_count() for row in adj]
    alive = set(range(g.n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        order.append(v)
        alive.remove(v)
        for w in bits(adj[v]):
            if w in alive:
                deg[w] -= 1
    return order


def reference_induced_rows(g: LabeledGraph, vs) -> list[int]:
    """The Python-int rows of the subgraph induced on the distinct vertices
    vs, in that order: the relabelled graph when vs is a permutation."""
    pos = {v: i for i, v in enumerate(vs)}
    rows = _unpack_rows(g.rows)
    adj = [0] * len(pos)
    for v, i in pos.items():
        for w in bits(rows[v]):
            if w in pos:
                adj[i] |= 1 << pos[w]
    return adj


def reference_greedy_clique(adj: list[int], n: int) -> list[int]:
    best: list[int] = []
    for start in range(n):
        clique = [start]
        cand = adj[start]
        while cand:
            v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def reference_max_clique(g: LabeledGraph, cutoff=None) -> CliqueCertificate:
    if g.n == 0:
        return CliqueCertificate(0, (), True, 0)
    order = reference_degeneracy_order(g)
    adj = reference_induced_rows(g, order)
    greedy = reference_greedy_clique(adj, g.n)
    best_size = len(greedy)
    best_witness = list(greedy)
    found_over_cutoff = cutoff is not None and best_size > cutoff

    def color_sort(P: int):
        order_out, bounds = [], []
        color = 0
        rest = P
        while rest:
            color += 1
            Q = rest
            while Q:
                v = (Q & -Q).bit_length() - 1
                Q &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
                order_out.append(v)
                bounds.append(color)
        return order_out, bounds

    stack_R: list[int] = []

    def expand(P: int):
        nonlocal best_size, best_witness, found_over_cutoff
        order_out, bounds = color_sort(P)
        for i in range(len(order_out) - 1, -1, -1):
            if cutoff is not None and found_over_cutoff:
                return
            if len(stack_R) + bounds[i] <= max(best_size, cutoff or 0):
                return
            v = order_out[i]
            stack_R.append(v)
            newP = P & adj[v]
            if newP:
                expand(newP)
            elif len(stack_R) > best_size:
                best_size = len(stack_R)
                best_witness = list(stack_R)
                if cutoff is not None and best_size > cutoff:
                    found_over_cutoff = True
            stack_R.pop()
            P &= ~(1 << v)

    expand((1 << g.n) - 1)

    witness = tuple(sorted(order[i] for i in best_witness))
    if cutoff is None:
        return CliqueCertificate(best_size, witness, True, best_size)
    if found_over_cutoff or best_size > cutoff:
        return CliqueCertificate(best_size, witness, False, None)
    return CliqueCertificate(best_size, witness, False, cutoff)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def random_graph(n, density, seed):
    rng = S.philox_rng(seed, 79)
    upper = np.triu(rng.random((n, n)) < density, 1)
    return LabeledGraph.from_adjacency(upper | upper.T)


def graph_of_blocks(sizes, inside):
    """Disjoint cliques (inside=True) or a complete multipartite graph
    (inside=False) on consecutive blocks of the given sizes."""
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if (block[u] == block[v]) == inside]
    return from_edges(n, edges)


TIE_HEAVY = {
    "empty-9": from_edges(9, []),
    "complete-12": graph_of_blocks([1] * 12, inside=False),
    "cycle-3": cycle(3),
    "cycle-64": cycle(64),
    "cycle-65": cycle(65),
    "multipartite-3x5": graph_of_blocks([5, 5, 5], inside=False),
    "multipartite-1-2-7-8": graph_of_blocks([1, 2, 7, 8], inside=False),
    "cliques-4x4": graph_of_blocks([4, 4, 4, 4], inside=True),
    "cliques-1-3-9-3": graph_of_blocks([1, 3, 9, 3], inside=True),
}

BOUNDARY_SIZES = [1, 2, 7, 8, 9, 63, 64, 65, 129]


def assert_setup_matches(g: LabeledGraph):
    order = _degeneracy_order(g.rows)
    assert order == reference_degeneracy_order(g)
    rows = _induced_rows(g.rows, order)
    adj = _unpack_rows(rows)
    assert adj == reference_induced_rows(g, order)
    # the bound max_clique takes on the relabelled rows is the smallest-last
    # colouring's on the original rows
    bound = _colour_bound(adj, range(g.n))
    assert bound == colour_bound(g)
    assert _greedy_clique(rows.view(np.uint64), bound) == reference_greedy_clique(adj, g.n)


def assert_certificates_match(g: LabeledGraph, cutoffs):
    bound = _colour_bound(_unpack_rows(g.rows), reference_degeneracy_order(g))
    for cutoff in cutoffs:
        ref = reference_max_clique(g, cutoff)
        assert max_clique(g, cutoff) == ref, cutoff
        # every certificate's size is that of a clique, so at most omega
        assert bound >= ref.size, cutoff


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_setup_matches_reference_on_random_graphs(seed):
    # up to 150 vertices, fewer at high density, where the exhaustive
    # search of both sides grows fast
    density = (1 + seed % 9) / 10
    n = 1 + (seed * 37) % (150 if density <= 0.5 else 40)
    g = random_graph(n, density, seed)
    assert_setup_matches(g)
    assert_certificates_match(g, [None, 2, 4, 7])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 70), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       cutoff=st.none() | st.integers(0, 8))
def test_certificate_matches_reference_on_random_graphs(n, density, seed, cutoff):
    g = random_graph(n, density if cutoff is not None or n <= 30 else density / 2, seed)
    assert_setup_matches(g)
    assert_certificates_match(g, [cutoff])


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_setup_matches_reference_on_tie_heavy_graphs(name):
    g = TIE_HEAVY[name]
    assert_setup_matches(g)
    assert_certificates_match(g, [None, 1, 3, 8])


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
def test_setup_matches_reference_at_word_boundaries(n, density):
    g = random_graph(n, density, 1000 + n)
    assert_setup_matches(g)
    assert_certificates_match(g, [None, 3])


def test_cutoff_path_past_the_gate_matches_reference():
    g = from_edges(5001, [(0, 5000), (63, 64), (64, 65), (63, 65)])
    assert_setup_matches(g)
    assert max_clique(g, cutoff=4) == reference_max_clique(g, cutoff=4)
    assert max_clique(g, cutoff=2) == CliqueCertificate(3, (63, 64, 65), False, None)


def test_cbe_benchmark_graph_matches_reference():
    # the graph of gen-cbe --p 3 --ell 1 --k 16 --n 800 --seed 1, certified
    # exhaustively by gen-cbe and with --cutoff 4 by analyze
    g = build_cbe(CbeParams(p=3, ell=1, k=16, n=800, seed=1)).to_labeled_graph()
    assert_setup_matches(g)
    assert_certificates_match(g, [None, 4])
    # the bound equals omega, so the greedy stops after one start and the
    # branch and bound does not run
    assert colour_bound(g) == 2


def test_analyze_computes_the_degeneracy_order_once(tmp_path, monkeypatch):
    """max_clique and p_independence's K_p-free test share the order the
    graph keeps, and it is the order of a fresh computation."""
    g = random_graph(90, 0.3, 7)
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    calls = []

    def counted(packed):
        calls.append(len(packed))
        return _degeneracy_order(packed)

    monkeypatch.setattr(analysis, "_degeneracy_order", counted)
    assert main(["analyze", str(path), "--p", "4", "--out", str(tmp_path / "a.csv")]) == 0
    assert calls == [90]
    h = read_edge_list(path)
    cert = max_clique(h)
    assert h._degeneracy_order() == _degeneracy_order(h.rows)
    assert calls == [90, 90]
    assert (cert, p_independence(h, 4)) == (max_clique(g), p_independence(g, 4))
    assert colour_bound(g) >= 4      # the K_p-free test does not settle p_independence


@pytest.mark.parametrize("params, bound", [
    (MbeParams(ell=2, p=2, q=2, k=10, m=20, seed=1), 8),
    (MbeParams(ell=2, p=1, q=2, k=10, m=4, t=4, retention=0.25, seed=1), 4),
], ids=["dense-m20", "blowup-t4"])
def test_mbe_benchmark_graphs_match_reference(params, bound):
    graph = build_mbe(params)
    g = graph.to_labeled_graph()
    assert_setup_matches(g)
    assert_certificates_match(g, [None, graph.omega_bound()])
    assert colour_bound(g) == bound


@pytest.mark.parametrize("n", [0, *BOUNDARY_SIZES])
def test_subgraph_matches_pairwise_reference(n):
    g = random_graph(n, 0.4, 2000 + n)
    rng = S.philox_rng(n, 80)
    for vs in (range(n), range(n // 2, n), rng.permutation(n)[: (2 * n) // 3].tolist(),
               [v for v in range(n) if v % 3 == 1][::-1]):
        assert _unpack_rows(_induced_rows(g.rows, vs)) == reference_induced_rows(g, vs)


@pytest.mark.parametrize("vs", [[0, -1], [-1, 0], [0, 7], [7]])
def test_subgraph_rejects_vertices_out_of_range(vs):
    with pytest.raises(ValueError, match="out of range"):
        subgraph(cycle(7), vs)
