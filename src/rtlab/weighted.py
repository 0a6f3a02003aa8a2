"""Weighted-graph upper-bound calculus.

A p-weighted graph carries symmetric integer edge weights in {0,...,p} with
zero diagonal.  A vertex enumeration v_1..v_m with vertex weights w(v_j) in
{1,...,p} is a *dominating extension* when for every j >= 2 with a = w(v_j)
the multiset of backwards edge weights {w(v_i, v_j) : i < j} dominates

    { p(a-1)/a + 1  (j-2 copies),  a }

as sorted multisets (exact rational comparison).  The *size* of an
extension is the total vertex weight; G_p(q) is the family of positive
p-weighted graphs admitting a dominating extension of size at least q.

The module provides the dominance primitives, pointwise-maximal extensions,
exact membership search via a subset dynamic program, the simplex quadratic
program g(A) = max u^T A u over the probability simplex (exact rational
support enumeration plus a multiplicative-update numeric fallback),
heroic/herculean sets with verifiable certificates, and the constructive
subgraph finder used by the p in {3, 4} density bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sphere
from .analysis import rho_star
from .sphere import ResourceLimit

MAX_EXACT_SIMPLEX = 16
MAX_EXTENSION_DP = 18

_STREAM_NUMERIC = 40   # g_of_A_numeric's Dirichlet restarts


# ---------------------------------------------------------------------------
# p-weighted graphs
# ---------------------------------------------------------------------------

class PWeightedGraph:
    """Symmetric edge weights V^2 -> {0,...,p} with zero diagonal."""

    __slots__ = ("p", "w")

    def __init__(self, p: int, w):
        if p < 1:
            raise ValueError("p must be at least 1")
        rows = tuple(tuple(int(x) for x in row) for row in w)
        m = len(rows)
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError("weight matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
            for j, x in enumerate(row):
                if not 0 <= x <= p:
                    raise ValueError(f"weight {x} outside 0..{p}")
                if x != rows[j][i]:
                    raise ValueError("weight matrix must be symmetric")
        self.p = p
        self.w = rows

    @classmethod
    def from_upper(cls, p: int, m: int, upper) -> "PWeightedGraph":
        it = iter(upper)
        w = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = int(next(it))
                w[i][j] = w[j][i] = x
        return cls(p, w)

    @property
    def m(self) -> int:
        return len(self.w)

    def degree(self, x: int) -> int:
        return sum(self.w[x])

    def delta(self) -> int:
        return min(self.degree(x) for x in range(self.m)) if self.m else 0

    def is_positive(self) -> bool:
        return all(self.w[i][j] > 0
                   for i in range(self.m) for j in range(i + 1, self.m))

    def wtilde(self, x: int, y: int) -> int:
        return self.p - self.w[x][y]

    def wtilde_total(self, K) -> int:
        K = list(K)
        return sum(self.wtilde(K[a], K[b])
                   for a in range(len(K)) for b in range(a + 1, len(K)))

    def gamma(self, K, x: int) -> int:
        return sum(self.wtilde(x, y) for y in K if y != x)

    # text format: first line "p m", then upper-triangle weights row by row
    def to_text(self) -> str:
        lines = [f"{self.p} {self.m}"]
        for i in range(self.m):
            if i < self.m - 1:
                lines.append(" ".join(str(self.w[i][j])
                                      for j in range(i + 1, self.m)))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dominance primitives
# ---------------------------------------------------------------------------

def multiset_dominates(a, b) -> bool:
    """Sorted pointwise comparison of equal-size rational multisets."""
    a = sorted(Fraction(x) for x in a)
    b = sorted(Fraction(x) for x in b)
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    return all(x >= y for x, y in zip(a, b))


def dominance_target(p: int, a: int, j: int) -> list:
    """Target multiset for weight a at position j: j-2 copies of
    p(a-1)/a + 1, then a."""
    if j < 2:
        raise ValueError("positions start at 2")
    return [Fraction(p * (a - 1), a) + 1] * (j - 2) + [Fraction(a)]


def is_dominating_extension(g: PWeightedGraph, order, weights) -> bool:
    """Definition check: position 1 is unconstrained, every later position
    passes the dominance test with exact rational targets.

    The order may enumerate any subset of distinct vertices; it is then an
    extension of the induced subgraph.
    """
    order = list(order)
    weights = list(weights)
    if len(set(order)) != len(order) or len(weights) != len(order):
        raise ValueError("order must list distinct vertices, one weight each")
    if any(v not in range(g.m) for v in order):
        raise ValueError("vertex id out of range")
    if any(not 1 <= a <= g.p for a in weights):
        return False
    for j in range(2, len(order) + 1):
        backwards = [g.w[order[i]][order[j - 1]] for i in range(j - 1)]
        if not multiset_dominates(backwards, dominance_target(g.p, weights[j - 1], j)):
            return False
    return True


def _weight_of_two_smallest(p: int, min1: int, min2) -> int:
    """_wmax from the smallest backwards weight and the second smallest
    (None for a single one).  Sorted targets are [a, c, ..., c] with
    c = p(a-1)/a + 1 >= a, so only the two smallest backwards weights
    matter; the c comparison is done in integers as a*b >= (p+1)a - p."""
    for a in range(p, 0, -1):
        if min1 < a:
            continue
        if min2 is not None and a * min2 < (p + 1) * a - p:
            continue
        return a
    return 0


def maximal_dominating_extension(g: PWeightedGraph, order) -> tuple:
    """Pointwise-maximal dominating weights for the given enumeration (of
    any distinct-vertex subset).

    Rejects enumerations whose prefix pairs contain a zero weight, since
    those force vertex weight 0, which is outside {1,...,p}.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("order must list distinct vertices")
    weights, prefix = [], 0
    for j, v in enumerate(order, 1):
        a = _wmax(g, v, prefix)
        if a == 0:
            raise ValueError(
                f"zero weight on a prefix pair forces weight 0 at position {j}")
        weights.append(a)
        prefix |= 1 << v
    return tuple(weights)


@dataclass(frozen=True)
class DominatingExtension:
    order: tuple
    weights: tuple
    size: int

    def verify(self, g: PWeightedGraph) -> bool:
        return (self.size == sum(self.weights)
                and is_dominating_extension(g, self.order, self.weights))


# ---------------------------------------------------------------------------
# extension-size dynamic program over vertex subsets
# ---------------------------------------------------------------------------

def _two_smallest(g: PWeightedGraph, u: int, mask: int):
    min1 = min2 = None
    row = g.w[u]
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        x = row[v]
        if min1 is None or x < min1:
            min1, min2 = x, min1
        elif min2 is None or x < min2:
            min2 = x
    return min1, min2


def _wmax(g: PWeightedGraph, u: int, mask: int) -> int:
    """Largest a in {1,...,p} whose target multiset u's weights to mask
    dominate: p for an empty mask, 0 when even a = 1 fails."""
    if mask == 0:
        return g.p
    return _weight_of_two_smallest(g.p, *_two_smallest(g, u, mask))


def _supersets(first: int, m: int):
    """Masks over m vertices that contain first, ascending."""
    mask = first
    while mask < 1 << m:
        yield mask
        mask = (mask + 1) | first


def extension_value_table(g: PWeightedGraph, first: int = 0, base: int = 0):
    """val[mask] = maximal dominating-extension size of the induced subgraph
    on mask, over the enumerations that list first's vertices first in a
    fixed order of size base (-inf where none exists), with a back-pointer
    table.  Only masks containing first are filled; the defaults give every
    enumeration of every mask.  The feasible weight of a vertex depends only
    on the set of earlier vertices, so the maximum is a subset DP.

    The tables have 2^m entries, so m is gated at MAX_EXTENSION_DP; every
    caller (membership, herculean sets, the finder) meets the gate here.
    """
    m = g.m
    if m > MAX_EXTENSION_DP:
        raise ResourceLimit(f"extension DP gated at {MAX_EXTENSION_DP} vertices")
    NEG = -(10 ** 9)
    val = [NEG] * (1 << m)
    last = [-1] * (1 << m)
    val[first] = base
    for mask in itertools.islice(_supersets(first, m), 1, None):
        rest = mask & ~first
        best, arg = NEG, -1
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            prev = mask & ~(1 << u)
            if val[prev] == NEG:
                continue
            wu = _wmax(g, u, prev)
            if wu == 0:
                continue
            cand = val[prev] + wu
            if cand > best:
                best, arg = cand, u
        val[mask] = best
        last[mask] = arg
    return val, last


def _reconstruct(g: PWeightedGraph, last, mask: int, head=()):
    """Extension (global vertex ids) achieving val[mask] from the DP table:
    head, the fixed order of the seed mask, then the back-pointer tail."""
    tail = []
    while last[mask] >= 0:
        u = last[mask]
        tail.append(u)
        mask &= ~(1 << u)
    order = [*head, *reversed(tail)]
    weights = maximal_dominating_extension(g, order)
    return DominatingExtension(tuple(order), weights, sum(weights))


def in_G_p_q(g: PWeightedGraph, q: int) -> DominatingExtension | None:
    """A dominating extension of size at least q, or None when g is not in
    G_p(q).

    Exact: the subset DP ranges over all enumerations of all vertices, so
    None means no extension of size q exists.  The DP's MAX_EXTENSION_DP
    gate is the only size limit (ResourceLimit beyond it).  The extension is
    not re-checked here: DominatingExtension.verify is the independent check.
    """
    if not g.is_positive():
        return None
    val, last = extension_value_table(g)
    full = (1 << g.m) - 1
    if val[full] < q:
        return None
    return _reconstruct(g, last, full)


# ---------------------------------------------------------------------------
# the simplex quadratic program g(A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexSolution:
    value: Fraction
    u: tuple
    support: tuple

    def row_sums(self, A) -> dict:
        """sum_{i != j} a_ij u_i for j in the support (each equals value)."""
        out = {}
        for j in self.support:
            out[j] = sum(Fraction(A[i][j]) * self.u[i]
                         for i in range(len(self.u)) if i != j)
        return out


def _as_matrix(A):
    M = [list(int(x) for x in row) for row in A]
    m = len(M)
    for i, row in enumerate(M):
        if len(row) != m:
            raise ValueError("matrix must be square")
        if row[i] != 0:
            raise ValueError("diagonal must be zero")
        for j, x in enumerate(row):
            if x < 0 or x != M[j][i]:
                raise ValueError("matrix must be symmetric nonnegative")
    return M


def _solve_support(M, support):
    """Exact solution of the stationarity system on a support: all row sums
    equal g, coordinates sum to 1.  Returns (g, u_full) or None."""
    k = len(support)
    n = k + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for r, j in enumerate(support):
        for c, i in enumerate(support):
            if i != j:
                rows[r][c] = Fraction(M[i][j])
        rows[r][k] = Fraction(-1)
    for c in range(k):
        rows[k][c] = Fraction(1)
    rhs[k] = Fraction(1)
    # Gaussian elimination with partial pivoting, exact
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = rows[col][col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / inv
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
                rhs[r] -= f * rhs[col]
    sol = [rhs[r] / rows[r][r] for r in range(n)]
    u_part, gval = sol[:k], sol[k]
    if any(x < 0 for x in u_part):
        return None
    m = len(M)
    u = [Fraction(0)] * m
    for c, i in enumerate(support):
        u[i] = u_part[c]
    return gval, u


def g_of_A(A) -> SimplexSolution:
    """max u^T A u over the probability simplex, exact.

    Every maximiser satisfies the equal-row-sum stationarity system on its
    support, so enumerating supports (smallest first, each size in
    combinations order) and keeping the first best feasible solution is
    exhaustive.  Gated at MAX_EXACT_SIMPLEX; use g_of_A_numeric beyond.
    """
    M = _as_matrix(A)
    m = len(M)
    if m == 0:
        return SimplexSolution(Fraction(0), (), ())
    if m > MAX_EXACT_SIMPLEX:
        raise ResourceLimit(f"exact simplex optimisation gated at {MAX_EXACT_SIMPLEX}")
    best_g = Fraction(0)
    best_u = [Fraction(0)] * m
    best_u[0] = Fraction(1)
    best_support = (0,)
    for size in range(2, m + 1):
        for support in itertools.combinations(range(m), size):
            sol = _solve_support(M, support)
            if sol is None:
                continue
            gval, u = sol
            if gval > best_g:
                best_g, best_u = gval, u
                best_support = tuple(i for i in range(m) if u[i] > 0)
    return SimplexSolution(best_g, tuple(best_u), best_support)


def g_of_A_numeric(A, seed: int = 0):
    """Multiplicative-update (replicator) ascent, 50 restarts of at most
    10,000 steps; returns (value, u).  The quadratic form is nonconcave, so
    restarts hedge local maxima; the exact mode is authoritative.

    Restart 0 starts at the barycentre, restart r > 0 at a Dirichlet(1) point
    drawn from philox_rng(seed, 40, r).  A step is u <- u * (Mu) / (u^T M u)
    followed by the extinction rule: every coordinate below
    np.finfo(float).tiny, the smallest normal float, becomes exactly 0 (for
    a nonnegative A, the sub-normals, whose arithmetic is several times
    slower).  A restart stops, and keeps its u, once its value u^T M u is not
    positive (u from before that step) or once the step moved no coordinate
    by 1e-15 or more (u after it).

    The restarts advance together as the rows of one (50 x m) array, in
    blocks of at most 32 steps that keep every state (fewer steps when 50 m
    is large, so the states stay near 64 KiB).  At the end of a block
    each row's first stop step is read from those states, and a stopped row
    leaves the array with that step's u: every row stops at the same step,
    with the same u, as a lone restart would.  The value of each final u is
    recomputed, and the first restart with the largest positive value wins;
    when none is positive the result is (0.0, e_0).
    """
    M = np.asarray(A, dtype=float)
    m = M.shape[0]
    if m == 0:
        return 0.0, np.zeros(0)
    U = np.empty((50, m))
    U[0] = 1.0 / m
    for restart in range(1, 50):
        U[restart] = sphere.philox_rng(seed, _STREAM_NUMERIC, restart).dirichlet(np.ones(m))
    tiny = np.finfo(float).tiny
    live = np.arange(50)                 # restart index of each row of X
    X = U.copy()
    steps = 0
    while live.size and steps < 10_000:
        # the block's states S, about 64 KiB at any m
        block = min(32, 10_000 - steps, max(1, 8192 // (live.size * m)))
        S = np.empty((block + 1, live.size, m))
        V = np.empty((block, live.size))
        S[0] = X
        # a row past its stop step runs on and may divide by v = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(block):
                X = S[j]
                # stacks of matrix-vector and vector-vector products rather
                # than the matrix product X @ M.T: numpy evaluates a stack
                # item by item, so each row rounds as a lone restart's M @ u
                # and u @ Mu would
                MX = (M @ X[:, :, None])[:, :, 0]
                V[j] = (X[:, None, :] @ MX[:, :, None])[:, 0, 0]
                np.divide(X * MX, V[j, :, None], out=S[j + 1])
                S[j + 1][S[j + 1] < tiny] = 0.0
            stop = (V <= 0) | (np.abs(S[1:] - S[:-1]) < 1e-15).all(axis=2)
        steps += block
        X = S[block]
        rows = np.flatnonzero(stop.any(axis=0))
        if rows.size:
            j = stop[:, rows].argmax(axis=0)
            U[live[rows]] = S[j + (V[j, rows] > 0), rows]
            live, X = np.delete(live, rows), np.delete(X, rows, axis=0)
    U[live] = X
    best_val, best_u = 0.0, None
    for u in U:
        val = float(u @ (M @ u))
        if val > best_val:
            best_val, best_u = val, u
    if best_u is None:
        best_u = np.zeros(m)
        best_u[0] = 1.0
    return best_val, best_u


# ---------------------------------------------------------------------------
# heroic and herculean sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HerculeanCertificate:
    K: tuple
    value: int                      # p|K| - wtilde(K)
    heroic_evidence: dict           # frozenset(L) -> DominatingExtension on L

    def verify(self, g: PWeightedGraph) -> bool:
        """Recheck everything from g: the value; an extension of size at
        least p|L| - wtilde(L) for every nonempty L in K (heroism); (ii)
        gamma_K(y) <= p - 1 inside K and gamma_K(x) >= p outside; and (iii)
        gamma_{K - y}(x) >= gamma_K(y) for x outside K and y in K."""
        K = set(self.K)
        if self.value != g.p * len(K) - g.wtilde_total(K):
            return False
        if (len(self.heroic_evidence) != 2 ** len(K) - 1
                or not all(L and L <= K for L in self.heroic_evidence)):
            return False
        for L, ext in self.heroic_evidence.items():
            if set(ext.order) != set(L):
                return False
            if ext.size < g.p * len(L) - g.wtilde_total(L):
                return False
            if not ext.verify(g):
                return False
        inside = {y: g.gamma(K, y) for y in K}
        outside = set(range(g.m)) - K
        return (all(gy <= g.p - 1 for gy in inside.values())
                and all(g.gamma(K, x) >= g.p for x in outside)
                and all(g.gamma(K - {y}, x) >= gy
                        for x in outside for y, gy in inside.items()))


def find_herculean(g: PWeightedGraph) -> HerculeanCertificate:
    """Herculean set: heroic (every nonempty subset L has an extension of
    size >= p|L| - wtilde(L)), maximising p|K| - wtilde(K), of minimal size
    among maximisers."""
    m = g.m
    if m < 1:
        raise ValueError("graph must have at least one vertex")
    val, last = extension_value_table(g)
    size = 1 << m
    p = g.p

    wtl = [0] * size  # wtilde over pairs inside mask
    for mask in range(1, size):
        u = (mask & -mask).bit_length() - 1
        prev = mask & ~(1 << u)
        extra = 0
        rest = prev
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            extra += p - g.w[u][v]
        wtl[mask] = wtl[prev] + extra

    heroic = [False] * size
    best = None  # (score, -popcount suppressed: use tuple ordering manually)
    for mask in range(1, size):
        pc = mask.bit_count()
        ok = val[mask] >= p * pc - wtl[mask]
        if ok:
            rest = mask
            while rest and ok:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                sub = mask & ~(1 << u)
                if sub and not heroic[sub]:
                    ok = False
        heroic[mask] = ok
        if ok:
            score = p * pc - wtl[mask]
            key = (score, -pc, -mask)
            if best is None or key > best[0]:
                best = (key, mask)
    k_mask = best[1]
    K = tuple(i for i in range(m) if (k_mask >> i) & 1)

    evidence = {}
    sub = k_mask
    while sub:
        L = frozenset(i for i in range(m) if (sub >> i) & 1)
        evidence[L] = _reconstruct(g, last, sub)
        sub = (sub - 1) & k_mask
    return HerculeanCertificate(K, p * len(K) - wtl[k_mask], evidence)


# ---------------------------------------------------------------------------
# the constructive subgraph finder for p in {3, 4}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgraphSearchResult:
    extension: DominatingExtension | None     # None when the search failed
    used_fallback: bool
    herculean: HerculeanCertificate
    failure: dict | None


def find_G_pq_subgraph(g: PWeightedGraph, t: int) -> SubgraphSearchResult:
    """Find J with an extension of size >= p t + 2 (p = g.p in {3, 4}).

    Follows the constructive recipe: take a herculean K with its maximal
    extension, then search the best augmentation appending outside vertices
    (the extension DP seeded with K); on a miss, falls back to the
    exhaustive subset optimum (the unseeded DP) before reporting failure
    with the violated minimum-degree condition.  As with in_G_p_q, the
    caller verifies the extension.
    """
    p = g.p
    if p not in (3, 4):
        raise ValueError("the constructive finder is for p in {3, 4}")
    if t < 1:
        raise ValueError("t must be at least 1")
    if not g.is_positive():
        raise ValueError("graph must be positive")
    target = p * t + 2
    cert = find_herculean(g)
    base_ext = cert.heroic_evidence[frozenset(cert.K)]
    searches = ((sum(1 << v for v in cert.K), base_ext.size, base_ext.order),
                (0, 0, ()))
    best_size = 0
    for used_fallback, (first, base, head) in enumerate(searches):
        val, last = extension_value_table(g, first, base)
        best = max(_supersets(first, g.m), key=val.__getitem__)
        if val[best] >= target:
            return SubgraphSearchResult(_reconstruct(g, last, best, head),
                                        bool(used_fallback), cert, None)
        best_size = max(best_size, val[best])

    threshold = Fraction(p) * rho_star(p, p * t + 2)[0] * g.m
    failure = {
        "target": target,
        "best_size": best_size,
        "delta": g.delta(),
        "degree_threshold": threshold,
        "hypothesis_met": Fraction(g.delta()) > threshold,
    }
    return SubgraphSearchResult(None, False, cert, failure)


# ---------------------------------------------------------------------------
# the parameter-window infeasibility check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    p: int
    s: int
    t: int
    slacks: dict      # m -> (s+t-m)(m-1)/m - s(t-1)/t, must never be positive
    passed: bool


def verify_theorem15_window(p: int, s: int, t: int) -> WindowReport:
    """Confirm by exact rational arithmetic that no integer m >= 2 satisfies
    s(t-1)/t < (s+t-m)(m-1)/m inside the window t(t-2) <= s <= t^2,
    s + t - 1 <= p.

    For m > s + t the right side is nonpositive while the left side is
    nonnegative, so checking m in [2, s+t] plus a small margin is complete.
    """
    if t < 1 or s < 1:
        raise ValueError("s and t must be positive")
    if not t * (t - 2) <= s <= t * t:
        raise ValueError(f"s={s} outside window [{t*(t-2)}, {t*t}]")
    if s + t - 1 > p:
        raise ValueError(f"p={p} violates s + t - 1 <= p")
    lhs = Fraction(s * (t - 1), t)
    m_hi = s + t + 2
    slacks = {}
    passed = True
    for m in range(2, m_hi + 1):
        rhs = Fraction((s + t - m) * (m - 1), m)
        slacks[m] = rhs - lhs
        if rhs > lhs:
            passed = False
    return WindowReport(p, s, t, slacks, passed)
