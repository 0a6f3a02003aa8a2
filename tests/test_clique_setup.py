"""max_clique's numpy set-up against the per-bit code it replaced.

The reference functions below are the earlier pure-Python degeneracy order,
bit-by-bit relabel, greedy seed and the whole search built on them, with
neither the colouring bounds nor the early stops they allow.  The numpy
kernels must give the same order, the same relabelled rows, the same greedy
seed and an equal CliqueCertificate, ties included, and the smallest-last
colouring count must be at least the size of every certified clique.
max_clique grows start 0's clique on the graph's own rows, peeling the order
only as far as its ties need, and stops there when the clique reaches the
first-fit bound in id order; the tests below check what that set-up skips.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import colour_bound, cycle, from_edges, subgraph

from rtlab import analysis, cli
from rtlab import sphere as S
from rtlab.analysis import (
    CliqueCertificate,
    LabeledGraph,
    _colour_bound,
    _colour_sort,
    _degeneracy_order,
    _greedy_clique,
    _grow_clique,
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


def reference_grow_clique(adj: list[int], start: int) -> list[int]:
    clique = [start]
    cand = adj[start]
    while cand:
        v = max(bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        clique.append(v)
        cand &= adj[v]
    return clique


def reference_greedy_clique(adj: list[int], n: int) -> list[int]:
    best: list[int] = []
    for start in range(n):
        clique = reference_grow_clique(adj, start)
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


def start_clique(g: LabeledGraph) -> tuple[list[int], LabeledGraph]:
    """Start 0's clique as max_clique grows it, on a fresh copy of g's rows,
    and the copy, which has peeled only what that clique needed."""
    h = LabeledGraph(g.n, g.rows)
    return _grow_clique(g.rows.view(np.uint64), h._degeneracy_order(1)[0], h._ranks), h


def first_fit_bound(g: LabeledGraph) -> int:
    """b0: first-fit colouring in id order, which needs no order."""
    return _colour_bound(_unpack_rows(g.rows), range(g.n))


def assert_setup_matches(g: LabeledGraph):
    order = list(_degeneracy_order(g.rows))
    assert order == reference_degeneracy_order(g)
    rows = _induced_rows(g.rows, order)
    adj = _unpack_rows(rows)
    assert adj == reference_induced_rows(g, order)
    # the smallest-last bound, first-fit on the relabelled rows from n - 1
    # down, is that of the original rows in reverse degeneracy order
    bound = _colour_bound(adj, range(g.n - 1, -1, -1))
    assert bound == colour_bound(g)
    # start 0 grown on the original rows, ties to the lowest rank, is start
    # 0 of the relabelled rows, whose ties go to the lowest id
    seed, _ = start_clique(g)
    rank = {v: i for i, v in enumerate(order)}
    assert [rank[v] for v in seed] == reference_grow_clique(adj, 0)
    assert (_greedy_clique(rows.view(np.uint64), bound, reference_grow_clique(adj, 0))
            == reference_greedy_clique(adj, g.n))


def assert_certificates_match(g: LabeledGraph, cutoffs):
    bound = _colour_bound(_unpack_rows(g.rows), reversed(reference_degeneracy_order(g)))
    for cutoff in cutoffs:
        ref = reference_max_clique(g, cutoff)
        assert max_clique(g, cutoff) == ref, cutoff
        # every certificate's size is that of a clique, so at most omega
        assert min(bound, first_fit_bound(g)) >= ref.size, cutoff


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


def test_cutoff_below_the_greedy_seed_stops_the_search():
    # the greedy seed of this graph has 6 vertices and omega is 7: under a
    # cutoff below 6 the certificate is the seed's, so the branch and bound
    # must stop before it finds the larger clique
    g = random_graph(30, 0.5, 3)
    assert_certificates_match(g, [None, 0, 1, 5, 6])
    assert (max_clique(g).size, max_clique(g, cutoff=5).size) == (7, 6)


def test_cbe_benchmark_graph_matches_reference():
    # the graph of gen-cbe --p 3 --ell 1 --k 16 --n 800 --seed 1, certified
    # exhaustively by gen-cbe and with --cutoff 4 by analyze
    g = build_cbe(CbeParams(p=3, ell=1, k=16, n=800, seed=1)).to_labeled_graph()
    assert_setup_matches(g)
    assert_certificates_match(g, [None, 4])
    # the bound equals omega, so the greedy stops after one start and the
    # branch and bound does not run
    assert colour_bound(g) == 2


def no_relabel(packed, vs):
    raise AssertionError("_induced_rows called")


def graphs_of_max_clique(monkeypatch):
    """The graphs that cli's max_clique calls get, kept so that a test can
    see how far each one's order was peeled once the commands are done."""
    graphs = []

    def recorded(g, cutoff=None):
        graphs.append(g)
        return max_clique(g, cutoff)

    monkeypatch.setattr(cli, "max_clique", recorded)
    return graphs


def test_analyze_of_a_cbe_graph_peels_a_handful_and_never_relabels(tmp_path, monkeypatch):
    # omega = 2 = b0, and start 0's clique reaches it: max_clique stops
    # there, having peeled 9 of the 120 vertices, and b0 < p settles
    # p_independence without peeling more
    monkeypatch.setattr(analysis, "_induced_rows", no_relabel)
    graphs = graphs_of_max_clique(monkeypatch)
    out = str(tmp_path / "cbe")
    assert main(["gen-cbe", "--p", "3", "--ell", "1", "--k", "16", "--n", "60",
                 "--seed", "1", "--out", out]) == 0
    assert main(["analyze", f"{out}.edges", "--p", "3", "--cutoff", "4",
                 "--out", str(tmp_path / "a.csv")]) == 0
    assert [len(g._order) for g in graphs] == [9, 9]


@pytest.mark.parametrize("commands", [
    ["gen-cbe --p 3 --ell 1 --k 16 --n 800 --seed 1 --out g",
     "analyze g.edges --header g.json --p 3 --cutoff 4 --out a.csv"],
    ["gen-mbe --ell 2 --p 2 --q 2 --k 10 --m 20 --seed 1 --out g"],
], ids=["cbe-gen-analyze", "mbe-dense-m20"])
def test_benchmark_graphs_peel_at_most_8_vertices(commands, tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "_induced_rows", no_relabel)
    graphs = graphs_of_max_clique(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command.split()) == 0
    assert len(graphs) == len(commands) and max(len(g._order) for g in graphs) <= 8


def test_full_order_is_peeled_once_and_shared(tmp_path, monkeypatch):
    """On a graph whose start 0 does not reach b0 and whose bounds do not
    settle p = 4, analyze peels the whole order, once: max_clique and
    p_independence share the peel the graph keeps."""
    g = random_graph(90, 0.3, 7)
    seed, _ = start_clique(g)
    assert len(seed) < first_fit_bound(g) and colour_bound(g) >= 4
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    yielded = []

    def counted(packed):
        for v in _degeneracy_order(packed):
            yielded.append(v)
            yield v

    monkeypatch.setattr(analysis, "_degeneracy_order", counted)
    assert main(["analyze", str(path), "--p", "4", "--out", str(tmp_path / "a.csv")]) == 0
    assert yielded == reference_degeneracy_order(g)
    yielded.clear()
    h = read_edge_list(path)
    assert (max_clique(h), p_independence(h, 4)) == (reference_max_clique(g),
                                                     p_independence(g, 4))
    assert yielded == h._order == reference_degeneracy_order(g)


# (n, density, seed) of random graphs by how b0 compares with the
# smallest-last bound, whether start 0's clique reaches b0 (the lazy path)
# or not (the full path), and whether start 0's growth meets tied scores
LAZY_CASES = {
    "below-lazy-tied": (12, 0.5, 16),
    "below-full-untied": (12, 0.3, 9),
    "below-full-tied": (12, 0.5, 4),
    "equal-lazy-untied": (12, 0.1, 15),
    "equal-lazy-tied": (12, 0.7, 23),
    "equal-full-untied": (12, 0.1, 0),
    "equal-full-tied": (12, 0.2, 5),
    "above-full-untied": (12, 0.1, 10),
    "above-full-tied": (12, 0.3, 5),
}


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_setup_matches_reference(case):
    n, density, seed = LAZY_CASES[case]
    g = random_graph(n, density, seed)
    b0, bound = first_fit_bound(g), colour_bound(g)
    ties = []
    h = LabeledGraph(g.n, g.rows)
    start = _grow_clique(g.rows.view(np.uint64), h._degeneracy_order(1)[0],
                         lambda vs: ties.append(len(vs)) or h._ranks(vs))
    relation = "below" if b0 < bound else "equal" if b0 == bound else "above"
    path = "lazy" if len(start) >= b0 else "full"
    assert f"{relation}-{path}-{'tied' if ties else 'untied'}" == case
    # the tied candidates' ranks are those of the whole order
    assert h._order == reference_degeneracy_order(g)[:len(h._order)]
    assert_certificates_match(g, [None, 0, 1, 2, 3, 5])


def test_branch_and_bound_work_is_pinned(monkeypatch):
    """The colour sorts of a search that runs with no cutoff: each is one
    node of the branch and bound.  A search that revisits a tried vertex, or
    prunes less, gives the same certificate but a different count."""
    g = random_graph(30, 0.5, 3)
    calls = []

    def counted(adj, P):
        calls.append(P.bit_count())
        return _colour_sort(adj, P)

    monkeypatch.setattr(analysis, "_colour_sort", counted)
    assert max_clique(g) == reference_max_clique(g)
    assert (len(calls), sum(calls)) == (12, 152)


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
