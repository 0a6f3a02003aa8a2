"""Complex Bollobas-Erdos graphs.

Two equal vertex classes W and Z of points on the complex unit sphere
S^{k-1}(C).  Inside a class, u and v are adjacent when u is an h-rotation of
v for some h in [p-1], i.e. |u - rho^h v| <= sqrt(mu) for the primitive
p-th root of unity rho.  A cross pair (w, z) is adjacent when the inner
product <w, z> avoids the thin strips where Im(rho^h <w,z>) is small for
some h, and its argument falls in the window [0, 2 pi ell / p].

Two point-selection modes are supported.  The `sampled` default draws W and
Z i.i.d. uniform on the sphere; the clique bounds are deterministic
consequences of the edge rules alone, so they hold in either mode.  The
`strict` mode follows the equal-measure partition route (one cell per index,
two points per cell), which is only feasible for very small mu or k = 1.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import sphere
from .analysis import LabeledGraph
from .sphere import GEOM_TOL

_STREAM_W = 10
_STREAM_Z = 11
# p n^2: the edge rules test each n x n Gram matrix p times, at about 30 s
# per 10^9 tests on 2 vCPUs
MAX_GRAM_TESTS = 10 ** 9
# bytes of complex128 Gram rows tested at once: about 80 rows at n = 800
_GRAM_BLOCK = 2 ** 20


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


def rotation_witness(u, v, params: CbeParams):
    """Smallest h in [p-1] with |u - rho^h v| <= sqrt(mu), or None."""
    uu = np.asarray(u, dtype=np.complex128)
    vv = np.asarray(v, dtype=np.complex128)
    if uu.shape != vv.shape:
        raise ValueError("dimension mismatch")
    ip = complex(np.sum(uu * np.conj(vv)))
    for h in range(1, params.p):
        # |u - rho^h v|^2 = 2 - 2 Re(rho^{-h} <u, v>) on unit vectors
        dist_sq = 2.0 - 2.0 * (params.rho ** (-h) * ip).real
        if dist_sq <= params.mu + GEOM_TOL:
            return h
    return None


def cross_edge(w, z, params: CbeParams) -> bool:
    """Cross rule: |Im(rho^h <w,z>)| >= K mu for all h, and
    arg <w,z> in [0, 2 pi ell / p]."""
    ww = np.asarray(w, dtype=np.complex128)
    zz = np.asarray(z, dtype=np.complex128)
    if ww.shape != zz.shape:
        raise ValueError("dimension mismatch")
    ip = complex(np.sum(ww * np.conj(zz)))
    kmu = params.big_k * params.mu
    strips = all(abs((params.rho ** h * ip).imag) >= kmu - GEOM_TOL
                 for h in range(params.p))
    window_hi = 2 * math.pi * params.ell / params.p
    ang = cmath.phase(ip) % (2 * math.pi)
    window = ang <= window_hi + GEOM_TOL or ang >= 2 * math.pi - GEOM_TOL
    return strips and window


def _inner_adjacency(points: np.ndarray, params: CbeParams) -> np.ndarray:
    """Bool adjacency of one class: u ~ v iff u is an h-rotation of v for
    some h in [p-1].

    The Gram matrix is one BLAS product; the rotation tests then run over
    blocks of its rows, each on the columns from the block's first row on,
    and write into the result."""
    gram = points @ points.conj().T
    n = len(gram)
    adjacency = np.zeros((n, n), dtype=bool)
    step = max(1, _GRAM_BLOCK // (16 * n))
    rot = np.empty(step * n, dtype=np.complex128)
    dist = np.empty(step * n)
    near = np.empty(step * n, dtype=bool)
    for lo in range(0, n, step):
        block = gram[lo:lo + step, lo:]
        hit = adjacency[lo:lo + step, lo:]
        r, d, b = (buf[:block.size].reshape(block.shape) for buf in (rot, dist, near))
        for h in range(1, params.p):
            np.multiply(params.rho ** (-h), block, out=r)
            np.multiply(2.0, r.real, out=d)
            np.subtract(2.0, d, out=d)
            np.less_equal(d, params.mu + GEOM_TOL, out=b)
            hit |= b
        # u h-rotation of v iff v (p-h)-rotation of u, but in floating point
        # the two tests can disagree at the threshold: the i<j test decides
        rows = len(hit)
        hit[:, :rows] = np.triu(hit[:, :rows], 1)
    adjacency |= adjacency.T
    return adjacency


def _cross_adjacency(W: np.ndarray, Z: np.ndarray, params: CbeParams):
    """Bool cross adjacency of W x Z, tested over blocks of Gram rows as in
    _inner_adjacency.  A negative angle a becomes a + 2 pi, which is
    a % (2 pi) but for the sign of a zero angle, so the window is the same."""
    gram = W @ Z.conj().T
    n, m = gram.shape
    kmu = params.big_k * params.mu
    window_hi = 2 * math.pi * params.ell / params.p
    adjacency = np.empty((n, m), dtype=bool)
    step = max(1, _GRAM_BLOCK // (16 * m))
    rot = np.empty(step * m, dtype=np.complex128)
    part = np.empty(step * m)
    flag = np.empty(step * m, dtype=bool)
    for lo in range(0, n, step):
        block = gram[lo:lo + step]
        edge = adjacency[lo:lo + step]
        r, a, b = (buf[:block.size].reshape(block.shape) for buf in (rot, part, flag))
        np.arctan2(block.imag, block.real, out=a)     # np.angle(block)
        np.add(a, 2 * math.pi, out=a, where=a < 0)
        np.less_equal(a, window_hi + GEOM_TOL, out=edge)
        np.greater_equal(a, 2 * math.pi - GEOM_TOL, out=b)
        edge |= b
        for h in range(params.p):
            np.multiply(params.rho ** h, block, out=r)
            np.abs(r.imag, out=a)
            np.greater_equal(a, kmu - GEOM_TOL, out=b)
            edge &= b
    return adjacency


class CbeGraph:
    """Built complex Bollobas-Erdos graph; vertices 0..n-1 are W, n..2n-1 are Z."""

    def __init__(self, params: CbeParams, W: np.ndarray, Z: np.ndarray):
        if W.shape != (params.n, params.k) or Z.shape != (params.n, params.k):
            raise ValueError("point arrays must have shape (n, k)")
        self.params = params
        self.W = W
        self.Z = Z
        cross = _cross_adjacency(W, Z, params)
        n = params.n
        adjacency = np.zeros((2 * n, 2 * n), dtype=bool)
        adjacency[:n, :n] = _inner_adjacency(W, params)
        adjacency[n:, n:] = _inner_adjacency(Z, params)
        adjacency[:n, n:] = cross
        adjacency[n:, :n] = cross.T
        self.adjacency = adjacency

    @property
    def n(self) -> int:
        return self.params.n

    def omega_bound(self) -> int:
        return self.params.p + self.params.ell

    def cross_density(self) -> float:
        n = self.n
        return float(self.adjacency[:n, n:].sum()) / (n * n)

    def cross_degrees(self) -> np.ndarray:
        n = self.n
        return np.concatenate([self.adjacency[:n, n:].sum(axis=1),
                               self.adjacency[n:, :n].sum(axis=1)])

    def max_inner_degree(self) -> int:
        n = self.n
        return int(max(self.adjacency[:n, :n].sum(axis=1).max(initial=0),
                       self.adjacency[n:, n:].sum(axis=1).max(initial=0)))

    def to_labeled_graph(self) -> LabeledGraph:
        return LabeledGraph.from_adjacency(self.adjacency)


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
