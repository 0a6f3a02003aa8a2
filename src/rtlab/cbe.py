"""Complex Bollobas-Erdos graphs.

Two equal vertex classes W and Z of points on the complex unit sphere
S^{k-1}(C).  Inside a class, u and v are adjacent when u is an h-rotation of
v for some h in [p-1], i.e. |u - rho^h v| <= sqrt(mu) for the primitive
p-th root of unity rho.  A cross pair (w, z) is adjacent when the inner
product <w, z> avoids the thin strips where Im(rho^h <w,z>) is small for
some h, and its argument falls in the window [0, 2 pi ell / p].  Each rule
is decided on the exact inner product of the stored float points, in float
where the margin clears a rounding bound and in Fractions elsewhere.

Two point-selection modes are supported.  The `sampled` default draws W and
Z i.i.d. uniform on the sphere; the clique bounds are deterministic
consequences of the edge rules alone, so they hold in either mode.  The
`strict` mode follows the equal-measure partition route (one cell per index,
two points per cell), which is only feasible for very small mu or k = 1.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sphere
from .analysis import LabeledGraph, _zero_rows
from .sphere import GEOM_TOL

_STREAM_W = 10
_STREAM_Z = 11
# p n^2: the edge rules test each n x n Gram matrix p times, at 3-10 s per
# 10^9 tests on 2 vCPUs (build_cbe at n = 2,500, k = 16: about 10 s at p = 3,
# 4 s at p = 20 and 3 s at p = 40)
MAX_GRAM_TESTS = 10 ** 9
# bytes of complex128 Gram rows computed at once: about 40 rows at n = 800.
# An edge test's float terms take (terms + 1) / 2 times as many bytes again
_GRAM_BLOCK = 2 ** 19


@dataclass(frozen=True)
class CbeParams:
    p: int
    ell: int
    k: int
    n: int
    seed: int
    epsilon: float = 0.02
    big_k: float = 2.0
    mode: str = "sampled"

    def __post_init__(self):
        if not 2 <= self.p <= sys.float_info.max:   # rho is a float of p
            raise ValueError("p must be at least 2 and at most the largest float")
        if not 1 <= self.ell < self.p:
            raise ValueError("ell must satisfy 1 <= ell < p")
        if not 1 <= self.k <= sys.float_info.max:   # mu is a float of k
            raise ValueError("k must be at least 1 and at most the largest float")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if not (math.isfinite(self.big_k) and self.big_k >= 1):
            raise ValueError("big_k must be finite and at least 1")
        if self.mode not in ("sampled", "strict"):
            raise ValueError("mode must be 'sampled' or 'strict'")
        if 3 * math.sqrt(self.mu) >= 4 / self.p:
            sphere.hierarchy_advisory(
                self, f"3 sqrt(mu)={3*math.sqrt(self.mu):.4f} >= 4/p={4/self.p:.4f}; "
                "rotation composition is not guaranteed")
        if self.big_k * self.mu >= 1:
            sphere.hierarchy_advisory(self, f"big_k*mu={self.big_k*self.mu:.4f} >= 1")

    @property
    def mu(self) -> float:
        return self.epsilon / math.sqrt(2 * self.k)

    @property
    def rho(self) -> complex:
        return complex(math.cos(2 * math.pi / self.p), math.sin(2 * math.pi / self.p))

    def to_dict(self) -> dict:
        return {
            "p": self.p, "ell": self.ell, "k": self.k, "n": self.n,
            "epsilon": self.epsilon, "bigK": self.big_k, "seed": self.seed,
            "mode": self.mode, "mu": self.mu,
            "rho": [self.rho.real, self.rho.imag],
        }


def _float_margin(k: int) -> float:
    """Bound on the float error of an edge test's margin at two points of
    C^k of norm 1 up to rounding: 64 gamma_{2k+2}, a safe multiple of the
    error of their inner product and of the few roundings after it (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1),
    and at least 1e-12, the bound up to k = 69."""
    m = (2 * k + 2) * 2.0 ** -53
    return max(1e-12, 64 * m / (1 - m))


def _rotation_terms(params: CbeParams) -> list[complex]:
    """The rotation test reads Re(c <u, v>) for c = rho^-h, h in [p-1]."""
    return [params.rho ** (-h) for h in range(1, params.p)]


def _rotation_margin(t, params: CbeParams, num=float):
    """Signed margin of the rotation test from its terms t, computed in place
    in t[0]: >= 0 iff 2 - 2 Re(rho^-h <u, v>) <= mu + GEOM_TOL for some h.
    With num=Fraction on object arrays of Fractions every step is exact; in
    float the constant 2 - (mu + GEOM_TOL) rounds, well inside the bound."""
    out = t[0]
    for s in t[1:]:
        np.maximum(out, s, out=out)
    np.multiply(out, 2, out=out)
    return np.subtract(out, 2 - num(params.mu + GEOM_TOL), out=out)


def _window(params: CbeParams) -> tuple[float, float]:
    """First and last angle of the cross test's window, GEOM_TOL slack included."""
    return -GEOM_TOL, 2 * math.pi * params.ell / params.p + GEOM_TOL


def _cross_terms(params: CbeParams) -> list[complex]:
    """The cross test reads Re(c <w, z>) for c = -i rho^h, that is
    Im(rho^h <w, z>), for h in 0..p-1; then, with the float direction
    d = (cos a, sin a) of each window end a, Im(conj(d) <w, z>) for the
    first end and its negation for the last."""
    lo, hi = _window(params)
    return ([complex(q.imag, -q.real) for q in (params.rho ** h for h in range(params.p))]
            + [complex(-math.sin(lo), -math.cos(lo)), complex(math.sin(hi), math.cos(hi))])


def _cross_margin(t, params: CbeParams, num=float):
    """Signed margin of the cross test from its terms t, as _rotation_margin:
    >= 0 iff |Im(rho^h <w, z>)| >= K mu - GEOM_TOL for every h and <w, z>
    lies in the closed sector counterclockwise from the first window
    direction to the last.  The sector is two half-plane sign tests, both
    passed when it spans less than pi and one when it spans more.  On
    signed margins min is 'and' and max is 'or'."""
    lo, hi = _window(params)
    *strips, after_lo, before_hi = t
    out = np.abs(strips[0], out=strips[0])
    for s in strips[1:]:
        np.minimum(out, np.abs(s, out=s), out=out)
    np.subtract(out, num(params.big_k * params.mu - GEOM_TOL), out=out)
    join = np.maximum if hi - lo > math.pi else np.minimum
    return np.minimum(out, join(after_lo, before_hi, out=after_lo), out=out)


def _exact_gram(A: np.ndarray, B: np.ndarray):
    """Real and imaginary parts of <A[t], B[t]> for each row t, exact, as
    object arrays of Fractions."""
    frac = np.vectorize(Fraction, otypes=[object])
    ar, ai, br, bi = (frac(part) for part in (A.real, A.imag, B.real, B.imag))
    return (ar * br + ai * bi).sum(axis=1), (ai * br - ar * bi).sum(axis=1)


def _edge_tests(A: np.ndarray, B: np.ndarray, params: CbeParams, terms, margin,
                out: np.ndarray, col: int, fallbacks=None, upper=False):
    """One edge test on the pairs (A[i], B[j]), ORed into the packed rows
    out: bit col + j of out[i] is set when the pair passes.  With upper, where
    A is B, only the pairs i < j are tested.

    Each block of rows of A takes its Gram entries from a product of its
    own, against the rows of B from the block's first row on when upper.
    One more product turns each entry x + iy into the test's terms
    Re(c (x + iy)) = x Re c - y Im c.  The float margin decides where it
    exceeds the error bound, and the margin of the exact Gram entry of the
    stored points decides the rest, so no block size or BLAS path moves an
    edge.  The block's decisions are then packed into its rows.  The count
    of exact decisions is appended to fallbacks."""
    consts = terms(params)
    coef = np.array([[c.real, -c.imag] for c in consts])
    n, m = len(A), len(B)
    bound = _float_margin(params.k)
    columns = B.conj().T
    step = max(1, _GRAM_BLOCK // (16 * m))
    gram_buf = np.empty(step * m, dtype=np.complex128)
    term_buf = np.empty((len(consts) + 1, step * m))
    near_buf = np.empty(step * m, dtype=bool)
    exact = 0
    for lo in range(0, n, step):
        first = lo if upper else 0
        rows, cols = min(step, n - lo), m - first
        size = rows * cols
        gram = gram_buf[:size]
        np.matmul(A[lo:lo + rows], columns[:, first:], out=gram.reshape(rows, cols))
        t = np.matmul(coef, gram.view(np.float64).reshape(size, 2).T,
                      out=term_buf[:-1, :size])
        value = margin(t.reshape(-1, rows, cols), params)
        if upper:
            value[:, :rows][np.tri(rows, dtype=bool)] = -np.inf
        # the block's bits from bit col + first on, padded to a whole byte
        pad = (col + first) % 8
        bits = np.zeros((rows, pad + cols), dtype=bool)
        block = bits[:, pad:]
        np.greater(value, bound, out=block)
        near = np.abs(value, out=term_buf[-1, :size].reshape(rows, cols))
        near = np.less_equal(near, bound, out=near_buf[:size].reshape(rows, cols))
        if near.any():
            i, j = np.nonzero(near)
            x, y = _exact_gram(A[lo + i], B[first + j])
            t = np.array([Fraction(c.real) * x - Fraction(c.imag) * y for c in consts])
            block[i, j] = margin(t, params, Fraction) >= 0
            exact += i.size
        packed = np.packbits(bits, axis=1, bitorder="little")
        byte = (col + first) // 8
        out[lo:lo + rows, byte:byte + packed.shape[1]] |= packed
    if fallbacks is not None:
        fallbacks.append(exact)


def _mirror(rows: np.ndarray):
    """Complete packed rows that hold only pairs i < j to the symmetric
    matrix, one word of columns [lo, lo + 64) at a time: those columns of
    rows [0, lo + 64), which no earlier word has touched, are unpacked, and
    their transpose is packed and ORed into rows [lo, lo + 64)."""
    n = len(rows)
    for lo in range(0, n, 64):
        hi = min(n, lo + 64)
        bits = np.unpackbits(rows[:hi, lo // 8:(hi + 7) // 8], axis=1, count=hi - lo,
                             bitorder="little")
        packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
        rows[lo:hi, :packed.shape[1]] |= packed


class CbeGraph:
    """Built complex Bollobas-Erdos graph; vertices 0..n-1 are W, n..2n-1 are Z.

    rows holds the 2n vertices' adjacency as LabeledGraph's packed rows.
    The rotation tests in each class decide the pairs i < j (with the float
    rho^-h the test on (u, v) and the one on (v, u) can disagree at the
    threshold), the cross tests every pair of W x Z, and the lower triangle
    is their transpose."""

    def __init__(self, params: CbeParams, W: np.ndarray, Z: np.ndarray):
        if W.shape != (params.n, params.k) or Z.shape != (params.n, params.k):
            raise ValueError("point arrays must have shape (n, k)")
        self.params = params
        self.W = W
        self.Z = Z
        n = params.n
        rows = _zero_rows(2 * n)
        fallbacks = []
        _edge_tests(W, Z, params, _cross_terms, _cross_margin, rows[:n], n, fallbacks)
        for lo, points in ((0, W), (n, Z)):
            _edge_tests(points, points, params, _rotation_terms, _rotation_margin,
                        rows[lo:lo + n], lo, fallbacks, upper=True)
        _mirror(rows)
        self.rows = rows
        # edge tests decided from exact inner products: their float margin
        # lay within the rounding bound
        self.exact_decisions = sum(fallbacks)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def adjacency(self) -> np.ndarray:
        """The 2n x 2n bool adjacency, unpacked from the rows on each call;
        for tests and the traced benchmark, as the library reads the rows."""
        return np.unpackbits(self.rows, axis=1, count=2 * self.n,
                             bitorder="little").view(bool)

    def omega_bound(self) -> int:
        return self.params.p + self.params.ell

    def _degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's inner and cross degree: the popcounts of its row
        below bit n and from bit n on, in the order W, Z."""
        n = self.n
        total = np.bitwise_count(self.rows).sum(axis=1, dtype=np.int64)
        below = np.bitwise_count(self.rows[:, :n // 8]).sum(axis=1, dtype=np.int64)
        if n % 8:
            below += np.bitwise_count(self.rows[:, n // 8] & np.uint8((1 << n % 8) - 1))
        inner = np.concatenate((below[:n], total[n:] - below[n:]))
        return inner, total - inner

    def cross_density(self) -> float:
        n = self.n
        return float(self._degrees()[1][:n].sum()) / (n * n)

    def cross_degrees(self) -> np.ndarray:
        return self._degrees()[1]

    def max_inner_degree(self) -> int:
        return int(self._degrees()[0].max(initial=0))

    def inner_edges(self) -> tuple[int, int]:
        """Edges inside W and inside Z."""
        inner = self._degrees()[0]
        return int(inner[:self.n].sum()) // 2, int(inner[self.n:].sum()) // 2

    def to_labeled_graph(self) -> LabeledGraph:
        return LabeledGraph(2 * self.n, self.rows)


def build_cbe(params: CbeParams) -> CbeGraph:
    """Construct the graph; deterministic for fixed params.

    strict mode partitions S^{2k-1}(R), the image of S^{k-1}(C) under the
    interleaving isometry, into n cells of diameter mu/4 and takes both class
    points from the same cell; InfeasiblePartition propagates when n is too
    small for that.  sampled mode draws the two classes i.i.d.
    """
    if params.mode == "strict":
        part = sphere.partition_real_sphere(2 * params.k, params.n, params.mu / 4,
                                            params.seed)
        pairs = np.array([part.sample_cell(i, 2, substream=1)
                          for i in range(params.n)])
        W = sphere.uninterleave(pairs[:, 0])
        Z = sphere.uninterleave(pairs[:, 1])
    else:
        # an exact repeat has probability 0, and would add no edge anyway
        W = sphere.sample_complex_sphere(params.k, params.n,
                                         sphere.philox_rng(params.seed, _STREAM_W))
        Z = sphere.sample_complex_sphere(params.k, params.n,
                                         sphere.philox_rng(params.seed, _STREAM_Z))
    graph = CbeGraph(params, W, Z)
    if params.k >= 32:
        lo = (params.ell / params.p - 0.2) * params.n
        hi = (params.ell / params.p + 0.2) * params.n
        degs = graph.cross_degrees()
        if degs.min() < lo or degs.max() > hi:
            warnings.warn(
                f"cross degree concentration check failed: range "
                f"[{degs.min()}, {degs.max()}] outside [{lo:.1f}, {hi:.1f}]",
                stacklevel=2)
    return graph
