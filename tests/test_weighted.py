import itertools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtlab import sphere as S
from rtlab.sphere import ResourceLimit
from rtlab.weighted import (
    MAX_EXTENSION_DP,
    DominatingExtension,
    HerculeanCertificate,
    PWeightedGraph,
    dense_core,
    dominance_target,
    extension_value_table,
    find_G_pq_subgraph,
    find_herculean,
    g_of_A,
    g_of_A_numeric,
    in_G_p_q,
    is_dominating_extension,
    max_feasible_weight,
    maximal_dominating_extension,
    multiset_dominates,
    verify_theorem15_window,
)


def graph_from_upper(p, m, upper):
    return PWeightedGraph.from_upper(p, m, upper)


def random_positive_graph(p, m, seed):
    rng = S.philox_rng(seed, 60)
    upper = [int(rng.integers(1, p + 1)) for _ in range(m * (m - 1) // 2)]
    return graph_from_upper(p, m, upper)


def all_positive_graphs(p, m):
    for upper in itertools.product(range(1, p + 1), repeat=m * (m - 1) // 2):
        yield graph_from_upper(p, m, upper)


# ---------------------------------------------------------------------------
# dominance primitives
# ---------------------------------------------------------------------------

def test_dominates_examples():
    assert multiset_dominates([3, 4, 4], [3, 3, 4])
    assert not multiset_dominates([3, 4, 4], [2, 2, 5])


def test_dominates_reflexive():
    assert multiset_dominates([1, Fraction(7, 3), 4], [4, 1, Fraction(7, 3)])


def test_dominates_size_mismatch():
    with pytest.raises(ValueError):
        multiset_dominates([1], [1, 2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12),
                min_size=1, max_size=6))
def test_dominance_reflexivity_property(xs):
    assert multiset_dominates(xs, xs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12),
             min_size=n, max_size=n),
    st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12),
             min_size=n, max_size=n),
    st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12),
             min_size=n, max_size=n))))
def test_dominance_order_properties(triple):
    a, b, c = triple
    # antisymmetry on sorted forms
    if multiset_dominates(a, b) and multiset_dominates(b, a):
        assert sorted(a) == sorted(b)
    # transitivity
    if multiset_dominates(a, b) and multiset_dominates(b, c):
        assert multiset_dominates(a, c)


def test_dominance_target_values():
    assert dominance_target(4, 3, 3) == [Fraction(11, 3), Fraction(3)]
    assert dominance_target(3, 2, 4) == [Fraction(5, 2), Fraction(5, 2), Fraction(2)]
    assert dominance_target(3, 1, 2) == [Fraction(1)]


# ---------------------------------------------------------------------------
# dominating extensions
# ---------------------------------------------------------------------------

def test_extension_eq_mq_pattern():
    # weights (p, t, 1, ..., 1) with a maximal first edge are dominating
    g = random_positive_graph(4, 5, seed=1)
    t, i, j = max((g.w[i][j], i, j) for i in range(5) for j in range(i + 1, 5))
    order = [i, j] + [v for v in range(5) if v not in (i, j)]
    weights = [4, t, 1, 1, 1]
    assert is_dominating_extension(g, order, weights)


def test_extension_single_vertex():
    g = PWeightedGraph(3, [[0]])
    assert is_dominating_extension(g, [0], [3])


def test_extension_counterexample_p4():
    # all edge weights 2, proposed (4, 2, 2): position 3 needs {2,2} to
    # dominate {3, 2}, which fails
    g = graph_from_upper(4, 3, [2, 2, 2])
    assert not is_dominating_extension(g, [0, 1, 2], [4, 2, 2])
    assert is_dominating_extension(g, [0, 1, 2], [4, 2, 1])


def test_max_feasible_weight_rules():
    assert max_feasible_weight(4, []) == 4
    assert max_feasible_weight(4, [4, 4]) == 4     # all p
    assert max_feasible_weight(4, [3, 3]) == 2     # equality twice at 3
    assert max_feasible_weight(4, [3, 4]) == 3     # one equality at 3
    assert max_feasible_weight(3, [1, 1]) == 1
    assert max_feasible_weight(3, [0, 2]) == 0


def section_rules_oracle(p, backwards):
    """The three-rule description of the maximal weight (p in {3, 4})."""
    if not backwards:
        return p
    if all(b == p for b in backwards):
        return p
    for a in range(p - 1, 1, -1):
        if all(b >= a for b in backwards) and sum(b == a for b in backwards) <= 1:
            return a
    if all(b >= 1 for b in backwards):
        return 1
    return 0


@pytest.mark.parametrize("p", [3, 4])
def test_max_feasible_matches_three_rules(p):
    for length in range(1, 5):
        for backwards in itertools.product(range(0, p + 1), repeat=length):
            assert max_feasible_weight(p, list(backwards)) == \
                section_rules_oracle(p, backwards), backwards


def test_maximal_extension_all_p():
    g = graph_from_upper(3, 4, [3] * 6)
    assert maximal_dominating_extension(g, range(4)) == (3, 3, 3, 3)


def test_maximal_extension_rejects_zero_prefix():
    g = graph_from_upper(3, 2, [0])
    with pytest.raises(ValueError):
        maximal_dominating_extension(g, [0, 1])


@pytest.mark.parametrize("p,m,seed", [(3, 4, 2), (4, 4, 3), (3, 5, 4), (4, 3, 5)])
def test_maximal_extension_is_pointwise_max(p, m, seed):
    g = random_positive_graph(p, m, seed)
    order = list(range(m))
    ours = maximal_dominating_extension(g, order)
    assert is_dominating_extension(g, order, ours)
    feasible = [vec for vec in itertools.product(range(1, p + 1), repeat=m)
                if is_dominating_extension(g, order, vec)]
    assert tuple(ours) in feasible
    for vec in feasible:
        assert all(v <= o for v, o in zip(vec, ours))
    # +1 perturbations all fail
    for i in range(m):
        if ours[i] < p:
            bumped = list(ours)
            bumped[i] += 1
            assert not is_dominating_extension(g, order, bumped)


# ---------------------------------------------------------------------------
# G_p(q) membership
# ---------------------------------------------------------------------------

def brute_best_extension_size(g):
    best = -1
    for order in itertools.permutations(range(g.m)):
        try:
            weights = maximal_dominating_extension(g, order)
        except ValueError:
            continue
        best = max(best, sum(weights))
    return best


def test_in_gpq_single_vertex():
    g = PWeightedGraph(3, [[0]])
    ext = in_G_p_q(g, 3)
    assert ext is not None and ext.size == 3
    assert in_G_p_q(g, 4) is None


def test_in_gpq_two_vertices():
    g = graph_from_upper(3, 2, [2])
    assert in_G_p_q(g, 5) is not None     # size 3 + 2
    assert in_G_p_q(g, 6) is None


@pytest.mark.parametrize("p,m,seed", [(3, 4, 7), (4, 4, 8), (3, 5, 9), (4, 5, 10)])
def test_value_table_matches_permutation_bruteforce(p, m, seed):
    g = random_positive_graph(p, m, seed)
    val, _ = extension_value_table(g)
    assert val[(1 << m) - 1] == brute_best_extension_size(g)


def test_in_gpq_eq_mq_membership():
    # positive graph with an edge of weight >= t belongs to G_p(p+t+m-2)
    for seed in range(5):
        g = random_positive_graph(4, 4, seed + 20)
        t = max(g.w[i][j] for i in range(4) for j in range(i + 1, 4))
        ext = in_G_p_q(g, 4 + t + 4 - 2)
        assert ext is not None
        assert ext.verify(g)


def test_in_gpq_nonpositive():
    g = graph_from_upper(3, 3, [1, 0, 1])
    assert in_G_p_q(g, 3) is None


@pytest.mark.parametrize("p,m,seed,optimum", [(3, 11, 6, 18), (4, 12, 1, 25)])
def test_in_gpq_member_at_exact_optimum(p, m, seed, optimum):
    # beyond ten vertices, where a few greedy enumerations miss the optimum
    g = random_positive_graph(p, m, seed)
    ext = in_G_p_q(g, optimum)
    assert ext is not None and ext.size == optimum and ext.verify(g)
    assert in_G_p_q(g, optimum + 1) is None


@pytest.mark.parametrize("search", [
    lambda g: in_G_p_q(g, 3),
    find_herculean,
    lambda g: find_G_pq_subgraph(g, 1),
], ids=["in_G_p_q", "find_herculean", "find_G_pq_subgraph"])
def test_extension_dp_gate(search):
    g = random_positive_graph(3, MAX_EXTENSION_DP + 1, seed=3)
    with pytest.raises(ResourceLimit, match="extension DP gated at 18"):
        search(g)


# ---------------------------------------------------------------------------
# g(A)
# ---------------------------------------------------------------------------

def test_g_of_a_empty():
    sol = g_of_A([])
    assert sol.value == 0


def g_of_A_grid(A, step: float = 0.001):
    """Brute-force grid oracle over the simplex; 2x2 matrices only."""
    M = np.asarray(A, dtype=float)
    if M.shape != (2, 2):
        raise ValueError("grid oracle is for 2x2 matrices")
    best = 0.0
    ticks = int(round(1 / step))
    for i in range(ticks + 1):
        u0 = i * step
        u = np.array([u0, 1 - u0])
        best = max(best, float(u @ M @ u))
    return best


def test_g_of_a_single_edge():
    for w in (1, 2, 3):
        sol = g_of_A([[0, w], [w, 0]])
        assert sol.value == Fraction(w, 2)
        assert sol.u == (Fraction(1, 2), Fraction(1, 2))
        grid = g_of_A_grid([[0, w], [w, 0]])
        assert abs(float(sol.value) - grid) <= 1e-3


def test_g_of_a_uniform_complete():
    for m, w in [(3, 2), (4, 3), (5, 1)]:
        A = [[0 if i == j else w for j in range(m)] for i in range(m)]
        sol = g_of_A(A)
        assert sol.value == Fraction(w * (m - 1), m)
        assert all(x == Fraction(1, m) for x in sol.u)


def random_weight_matrix(rng):
    """Symmetric m x m integer matrix, m in 2..6, zero diagonal, weights
    0..4, drawn as cli.suite_gofa_oracle draws each trial's matrix."""
    m = int(rng.integers(2, 7))
    A = np.zeros((m, m), dtype=int)
    iu = np.triu_indices(m, 1)
    A[iu] = rng.integers(0, 5, size=len(iu[0]))
    return A + A.T


def test_g_of_a_row_sum_identity():
    for seed in range(20):
        A = random_weight_matrix(S.philox_rng(seed, 61))
        sol = g_of_A(A.tolist())
        sums = sol.row_sums(A.tolist())
        for j in sol.support:
            assert sums[j] == sol.value  # exact rational identity


def test_g_of_a_matches_numeric():
    for seed in range(40):
        A = random_weight_matrix(S.philox_rng(seed, 62))
        exact = float(g_of_A(A.tolist()).value)
        approx, _ = g_of_A_numeric(A.tolist(), seed=seed)
        assert abs(exact - approx) <= 1e-3


def sequential_g_of_A_numeric(A, seed=0):
    """The numeric oracle with its restarts run one after another, one
    vector at a time: the reference for g_of_A_numeric's batched rows."""
    M = np.asarray(A, dtype=float)
    m = M.shape[0]
    if m == 0:
        return 0.0, np.zeros(0)
    best_val, best_u = 0.0, None
    for restart in range(50):
        if restart == 0:
            u = np.full(m, 1.0 / m)
        else:
            rng = S.philox_rng(seed, 40, restart)
            u = rng.dirichlet(np.ones(m))
        for _ in range(10_000):
            Au = M @ u
            val = float(u @ Au)
            if val <= 0:
                break
            nxt = u * Au / val
            if np.max(np.abs(nxt - u)) < 1e-15:
                u = nxt
                break
            u = nxt
        val = float(u @ (M @ u))
        if val > best_val:
            best_val, best_u = val, u.copy()
    if best_u is None:
        best_u = np.zeros(m)
        best_u[0] = 1.0
    return best_val, best_u


# (philox_rng arguments, oracle seed) of test_g_of_a_matches_numeric's 40
# matrices, and of the gofA-oracle suite's trials 0-39 of seed 0
ORACLE_CASES = {
    "matches-numeric": [((seed, 62), seed) for seed in range(40)],
    "gofa-suite": [((0, 70, trial), trial) for trial in range(40)],
}

# sequential_g_of_A_numeric's value on each ORACLE_CASES matrix, as hex
# floats, recorded at the commit the file names: the loop takes about a
# minute over all 80, the batched oracle about a second
SEQUENTIAL_VALUES = Path(__file__).with_name("sequential_g_of_a_numeric.json")


def record_sequential_values(commit):
    """Rewrite SEQUENTIAL_VALUES from the sequential loop, naming the commit
    it ran at; from the repository root:
    PYTHONPATH=src:tests python -c "import test_weighted as t; t.record_sequential_values('<commit>')"
    """
    out = {"recorded_at": commit, "oracle": "sequential_g_of_A_numeric"}
    for name, cases in ORACLE_CASES.items():
        out[name] = [sequential_g_of_A_numeric(
            random_weight_matrix(S.philox_rng(*rng_args)).tolist(), seed=seed)[0].hex()
            for rng_args, seed in cases]
    SEQUENTIAL_VALUES.write_text(json.dumps(out, indent=1) + "\n")


@pytest.mark.parametrize("cases", ORACLE_CASES)
def test_g_of_a_numeric_matches_sequential_restarts(cases):
    recorded = json.loads(SEQUENTIAL_VALUES.read_text())[cases]
    assert len(recorded) == len(ORACLE_CASES[cases])
    for (rng_args, seed), ref_hex in zip(ORACLE_CASES[cases], recorded):
        A = random_weight_matrix(S.philox_rng(*rng_args))
        val, u = g_of_A_numeric(A.tolist(), seed=seed)
        ref_val = float.fromhex(ref_hex)
        assert abs(val - ref_val) <= 1e-12, (A, seed)
        assert u.min() >= -1e-12 and abs(u.sum() - 1) <= 1e-12
        assert abs(float(u @ A @ u) - val) <= 1e-12


@pytest.mark.parametrize("A", [np.zeros((3, 3)), [[0]], [[3]], np.ones((4, 4)),
                               []],
                         ids=["zero", "1x1-zero", "1x1", "all-ones", "empty"])
def test_g_of_a_numeric_edge_cases(A):
    val, u = g_of_A_numeric(A, seed=5)
    ref_val, ref_u = sequential_g_of_A_numeric(A, seed=5)
    assert abs(val - ref_val) <= 1e-12
    # every restart of the all-ones matrix is a maximiser; the first restart
    # with the largest value wins, as in the sequential oracle
    assert u.shape == ref_u.shape and np.allclose(u, ref_u, rtol=0, atol=1e-12)


def test_g_of_a_numeric_nonpositive_returns_e0():
    for A, e0 in ((np.zeros((3, 3)), [1.0, 0.0, 0.0]), ([[0]], [1.0])):
        val, u = g_of_A_numeric(A)
        assert val == 0.0 and u.tolist() == e0
    val, u = g_of_A_numeric([])
    assert val == 0.0 and u.shape == (0,)


def test_g_of_a_validation():
    with pytest.raises(ValueError):
        g_of_A([[1]])
    with pytest.raises(ValueError):
        g_of_A([[0, 1], [2, 0]])


# ---------------------------------------------------------------------------
# dense core
# ---------------------------------------------------------------------------

def test_dense_core_already_dense():
    A = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
    J, sol = dense_core(A)
    assert J == (0, 1, 2)
    assert sol.value == Fraction(4, 3)


def test_dense_core_block_diagonal():
    # block {0,1} with weight 1 vs block {2,3,4} complete weight 3
    A = np.zeros((5, 5), dtype=int)
    A[0, 1] = 1
    for i, j in itertools.combinations((2, 3, 4), 2):
        A[i, j] = 3
    A = (A + A.T).tolist()
    g_all = g_of_A(A).value
    g_block = g_of_A([[0, 3, 3], [3, 0, 3], [3, 3, 0]]).value
    assert g_block == Fraction(2) and g_all == g_block
    J, sol = dense_core(A)
    assert J == (2, 3, 4)
    assert sol.value == g_all


def test_dense_core_positive_and_full_support():
    for seed in range(100):
        rng = S.philox_rng(seed, 63)
        m = int(rng.integers(2, 6))
        A = np.zeros((m, m), dtype=int)
        iu = np.triu_indices(m, 1)
        A[iu] = rng.integers(0, 4, size=len(iu[0]))
        A = A + A.T
        J, sol = dense_core(A.tolist())
        if len(J) >= 2:
            # density forces positivity of the core and full support of u
            for a, b in itertools.combinations(range(len(J)), 2):
                assert A[J[a], J[b]] > 0
            assert sol.support == tuple(range(len(J)))
        # minimality: every one-index deletion strictly decreases g
        for drop in range(len(J)):
            sub = [x for i, x in enumerate(J) if i != drop]
            if sub:
                sub_A = [[int(A[a, b]) for b in sub] for a in sub]
                assert g_of_A(sub_A).value < sol.value or len(J) == 1


def brute_dense_core(A):
    """The first index set J, by size then in combinations order, with
    g(A[J]) = g(A), and the g_of_A solution on A[J]."""
    full_g = g_of_A(A).value
    for size in range(1, len(A) + 1):
        for J in itertools.combinations(range(len(A)), size):
            sol = g_of_A([[A[a][b] for b in J] for a in J])
            if sol.value >= full_g:
                return J, sol


def random_core_matrix(seed):
    """Small symmetric matrices with zero blocks and many tied weights."""
    rng = S.philox_rng(seed, 65)
    m = int(rng.integers(1, 7))
    hi = int(rng.integers(1, 4))
    A = np.zeros((m, m), dtype=int)
    iu = np.triu_indices(m, 1)
    A[iu] = rng.integers(0, hi + 1, size=len(iu[0]))
    if seed % 3 == 1:                       # ties: two weight values only
        A[iu] = np.where(A[iu] > 0, hi, 0)
    if seed % 3 == 2:                       # zero block between two sides
        side = rng.integers(0, 2, size=m)
        A[iu] *= side[iu[0]] == side[iu[1]]
    return (A + A.T).tolist()


@pytest.mark.parametrize("chunk", range(4))
def test_dense_core_matches_bruteforce(chunk):
    for seed in range(chunk * 60, chunk * 60 + 60):
        A = random_core_matrix(seed)
        assert dense_core(A) == brute_dense_core(A), A


def test_dense_core_gate():
    A = [[0 if i == j else 1 for j in range(17)] for i in range(17)]
    with pytest.raises(ResourceLimit):
        dense_core(A)


# ---------------------------------------------------------------------------
# heroic / herculean sets
# ---------------------------------------------------------------------------

def test_herculean_single_vertex():
    g = PWeightedGraph(3, [[0]])
    cert = find_herculean(g)
    assert cert.K == (0,) and cert.value == 3
    assert cert.verify(g)


def test_herculean_all_p():
    g = graph_from_upper(3, 5, [3] * 10)
    cert = find_herculean(g)
    assert cert.K == (0, 1, 2, 3, 4)
    assert cert.value == 15
    assert cert.verify(g)
    assert all(g.gamma(set(cert.K), y) == 0 for y in cert.K)


@pytest.mark.parametrize("seed", range(0, 200, 1))
def test_herculean_random_certificates(seed):
    rng = S.philox_rng(seed, 64)
    m = int(rng.integers(2, 8))
    g = random_positive_graph(3, m, seed + 1000)
    cert = find_herculean(g)
    assert cert.verify(g)
    K = set(cert.K)
    # property (ii) recomputed directly
    for y in cert.K:
        assert g.gamma(K, y) <= 2
    for x in range(m):
        if x not in K:
            assert g.gamma(K, x) >= 3
    # property (iii) recomputed directly
    for x in range(m):
        if x in K:
            continue
        for y in cert.K:
            assert g.gamma(K - {y}, x) >= g.gamma(K, y)


def _certificate_for(g, K):
    """A certificate that claims K, with a best extension of every nonempty
    L inside K found over all enumerations of L."""
    evidence = {}
    for size in range(1, len(K) + 1):
        for L in itertools.combinations(K, size):
            exts = [DominatingExtension(order, w, sum(w))
                    for order in itertools.permutations(L)
                    for w in [maximal_dominating_extension(g, order)]]
            evidence[frozenset(L)] = max(exts, key=lambda e: e.size)
    return HerculeanCertificate(tuple(K), g.p * len(K) - g.wtilde_total(K),
                                evidence)


@pytest.mark.parametrize("text, wrong_K, ii_iii", [
    ("3 3\n1 3\n1\n", (0,), (False, True)),
    ("3 6\n2 2 2 2 1\n3 3 1 2\n2 3 3\n3 1\n1\n", (2, 4, 5), (True, False)),
], ids=["violates-ii", "violates-iii"])
def test_herculean_verify_rejects_wrong_K(text, wrong_K, ii_iii):
    g = PWeightedGraph.from_text(text)
    cert = find_herculean(g)
    assert cert.verify(g) and cert.K != wrong_K
    forged = _certificate_for(g, wrong_K)
    # the forged K is heroic, with a correct value; only (ii) or (iii) fails
    for L, ext in forged.heroic_evidence.items():
        assert ext.verify(g) and ext.size >= g.p * len(L) - g.wtilde_total(L)
    K = set(wrong_K)
    outside = set(range(g.m)) - K
    ii = (all(g.gamma(K, y) <= g.p - 1 for y in K)
          and all(g.gamma(K, x) >= g.p for x in outside))
    iii = all(g.gamma(K - {y}, x) >= g.gamma(K, y) for x in outside for y in K)
    assert (ii, iii) == ii_iii
    assert not forged.verify(g)
    assert _certificate_for(g, cert.K).verify(g)


def test_herculean_verify_needs_every_subset():
    g = random_positive_graph(3, 5, seed=1003)
    cert = find_herculean(g)
    assert len(cert.K) >= 2
    some_L = next(L for L in cert.heroic_evidence if len(L) < len(cert.K))
    partial = {L: e for L, e in cert.heroic_evidence.items() if L != some_L}
    assert not replace(cert, heroic_evidence=partial).verify(g)
    assert not replace(cert, heroic_evidence={}).verify(g)


def test_herculean_gate():
    g = random_positive_graph(3, 19, seed=3)
    with pytest.raises(ResourceLimit):
        find_herculean(g)


# ---------------------------------------------------------------------------
# the constructive finder
# ---------------------------------------------------------------------------

def test_find_subgraph_k2_full_weight():
    g = graph_from_upper(3, 2, [3])
    res = find_G_pq_subgraph(g, t=1)
    assert sorted(res.extension.order) == [0, 1]
    assert res.extension.weights == (3, 3)
    assert res.extension.size == 6 >= 5


def test_find_subgraph_failure_report():
    # all weights 1, p = 3, t = 2: target 8 is out of reach for 3 vertices
    g = graph_from_upper(3, 3, [1, 1, 1])
    res = find_G_pq_subgraph(g, t=2)
    assert res.extension is None
    assert res.failure["target"] == 8
    assert res.failure["delta"] == 2
    assert not res.failure["hypothesis_met"]  # delta <= 3 rho*_3(8) m


def test_find_subgraph_random_successes_verified():
    for seed in range(30):
        g = random_positive_graph(3, 5, seed + 500)
        if g.delta() <= Fraction(5, 2):
            continue
        res = find_G_pq_subgraph(g, t=1)
        assert res.extension.size >= 5
        assert res.extension.verify(g)


def brute_k_first_best(g, K):
    """Best extension size over the enumerations that list K first, then
    any ordered subset of the other vertices."""
    best = 0
    for order in itertools.permutations(range(g.m)):
        if set(order[:len(K)]) != set(K):
            continue
        weights = maximal_dominating_extension(g, order)
        best = max(best, max(sum(weights[:n]) for n in range(len(K), g.m + 1)))
    return best


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_find_subgraph_recipe_matches_k_first_oracle(p, t):
    augmented = 0
    for seed in range(40):
        g = random_positive_graph(p, 2 + seed % 4, seed + 900)
        res = find_G_pq_subgraph(g, t)
        K = res.herculean.K
        best = brute_k_first_best(g, K)
        if res.extension is not None and not res.used_fallback:
            head = res.herculean.heroic_evidence[frozenset(K)].order
            assert res.extension.order[:len(K)] == head
            assert res.extension.size == best
            augmented += len(res.extension.order) > len(K)
        elif res.extension is not None:
            assert best < p * t + 2
        else:
            assert best <= res.failure["best_size"] < p * t + 2
    assert augmented > 0


def test_find_subgraph_validation():
    g = random_positive_graph(5, 3, seed=1)
    with pytest.raises(ValueError):
        find_G_pq_subgraph(g, t=1)
    with pytest.raises(ValueError):
        find_G_pq_subgraph(graph_from_upper(3, 2, [0]), t=1)


# ---------------------------------------------------------------------------
# the parameter window check
# ---------------------------------------------------------------------------

def test_window_t2_s1():
    rep = verify_theorem15_window(p=2, s=1, t=2)
    assert rep.passed
    assert all(slack <= 0 for slack in rep.slacks.values())


def test_window_boundary_t3_s9():
    rep = verify_theorem15_window(p=11, s=9, t=3)
    assert rep.passed
    # the factored form (m - t)(m - (s+t)/t) < 0 has no integer solutions
    for m, slack in rep.slacks.items():
        factored = (m - 3) * (Fraction(m) - Fraction(9 + 3, 3))
        assert (slack > 0) == (factored < 0)


def test_window_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_theorem15_window(p=10, s=2, t=3)  # s < t (t - 2)
    with pytest.raises(ValueError):
        verify_theorem15_window(p=2, s=2, t=2)   # s + t - 1 > p


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_weighted_text_roundtrip():
    g = random_positive_graph(4, 5, seed=77)
    back = PWeightedGraph.from_text(g.to_text())
    assert back.p == g.p and back.w == g.w


def test_weighted_text_rejects_short_input():
    with pytest.raises(ValueError, match="needs 3 upper-triangle weights, found 2"):
        PWeightedGraph.from_text("3 3\n1 2\n")

