"""Geometry of high dimensional real and complex unit spheres.

Points are plain arrays: an (n, k) complex128 array holds n points of
S^{k-1}(C) and an (n, d) float64 array n points of S^{d-1}(R); a point of
S^{k-1}(C) is read as one of S^{2k-1}(R) by interleaving its real and
imaginary parts (uninterleave is the way back).  Provides uniform sampling,
equal-measure partitions of S^{d-1}(R) with certified diameter bounds (a
partition of S^{k-1}(C) is one of S^{2k-1}(R) read through the isometry),
and the almost antipodal and near tests.  The cap-measure bounds, the
isometry's forward map and the rhombus search are checked in the tests.

All geometric predicates use closed comparisons with an absolute slack of
GEOM_TOL so that boundary cases keep their mathematical truth value at
double precision.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np
# imported here, not on the first philox_rng call, so that its cost falls in
# start-up with numpy's own; every gen-* run draws from philox_rng
import numpy.random  # noqa: F401

GEOM_TOL = 1e-9

_TWO_PI = 2.0 * math.pi

# Stream ids so different consumers of the same seed never share a Philox key.
# sample_cell's substream s draws from stream _STREAM_CELL + s; the library
# uses s = 0 (mbe partition points) and s = 1 (strict cbe), so 2 and 3, and
# s is held below _CELL_SUBSTREAMS so the cell streams stop short of cbe's 10.
# Streams 1 and 30 belong to the Monte Carlo estimators in tests/test_sphere.py.
_STREAM_CELL = 2
_CELL_SUBSTREAMS = 8

MAX_SAMPLE_FLOATS = 2 ** 25   # 256 MiB of float64 per draw


class InfeasiblePartition(ValueError):
    """The requested cell count cannot meet the diameter bound."""


class ResourceLimit(RuntimeError):
    """An operation exceeded its configured exact-mode size gate."""


def hierarchy_advisory(params, message: str) -> None:
    """Warn "parameter hierarchy advisory: <message>" from the __post_init__
    of the dataclass params, naming the line that built them: the first
    frame outside __post_init__, the generated __init__ and the dataclasses
    module, whose replace() runs __init__ from its own frames."""
    init = type(params).__init__.__code__
    level, frame = 3, sys._getframe(2)  # 1: __post_init__, 2: __init__
    while frame.f_back is not None and (
            frame.f_code is init or frame.f_code.co_filename == dataclasses.__file__):
        level, frame = level + 1, frame.f_back
    warnings.warn(f"parameter hierarchy advisory: {message}", stacklevel=level)


def philox_rng(seed: int, stream: int = 0, substream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream, substream) fully determine
    output, so a draw keyed by an index (a partition cell, a Monte Carlo
    chunk) does not depend on the draws before it."""
    # uint64: numpy takes a list holding 2^63 or more as float64
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, ((int(stream) & 0xFFFFFFFF) << 32)
                    | (int(substream) & 0xFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# The interleaving isometry, uniform sampling and the distance tests
# ---------------------------------------------------------------------------

def uninterleave(x: np.ndarray) -> np.ndarray:
    """(x1,y1,...,xk,yk) -> (x1+iy1,...,xk+iyk), vectorised over rows; the
    last axis length must be even.

    The inverse of the distance-preserving map that interleaves the real and
    imaginary parts of S^{k-1}(C) into S^{2k-1}(R)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % 2:
        raise ValueError("real dimension must be even")
    return x[..., 0::2] + 1j * x[..., 1::2]


def sample_real_sphere(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform points on S^{d-1}(R), shape (size, d)."""
    if size * d > MAX_SAMPLE_FLOATS:
        raise ResourceLimit(f"{size} points in dimension {d} exceed the desk bound "
                            f"of {MAX_SAMPLE_FLOATS} floats")
    x = rng.standard_normal((size, d))
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    # resample the measure-zero event of an exactly zero Gaussian row
    while np.any(nrm == 0.0):
        bad = nrm[:, 0] == 0.0
        x[bad] = rng.standard_normal((int(bad.sum()), d))
        nrm = np.linalg.norm(x, axis=1, keepdims=True)
    return x / nrm


def sample_complex_sphere(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform points on S^{k-1}(C), shape (size, k) complex."""
    return uninterleave(sample_real_sphere(2 * k, size, rng))


def almost_antipodal(ip, mu: float):
    """Where unit vectors with inner products ip are almost antipodal:
    |x - y| >= 2 - mu, i.e. <x,y> <= 1 - (2 - mu)^2 / 2 while 2 - mu > 0
    (closed, GEOM_TOL slack).  For mu >= 2 every pair is: the bound becomes
    <x,y> <= 1."""
    return ip <= (1.0 - max(2.0 - mu, 0.0) ** 2 / 2.0) + GEOM_TOL


def near(ip, mu: float):
    """Where unit vectors with inner products ip are near: |x - y| <=
    sqrt(2) - mu, i.e. <x,y> >= sqrt(2) mu - mu^2 / 2 while sqrt(2) - mu >= 0
    (closed, GEOM_TOL slack).  For mu > sqrt(2) no pair is: the bound
    becomes infinite."""
    bound = math.sqrt(2) * mu - mu ** 2 / 2.0 if mu <= math.sqrt(2) else math.inf
    return ip >= bound - GEOM_TOL


# ---------------------------------------------------------------------------
# Equal-measure partitions
#
# S^{d-1}(R) is parametrised by nested spherical coordinates: axis j < d-2 is
# a polar angle in [0, pi] with density proportional to sin^{d-2-j}, axis d-2
# is the azimuth, uniform on [0, 2 pi).  The product density is the uniform
# measure, so axis-aligned boxes have measure equal to the product of their
# one-dimensional quantile spans.
#
# Cells are built by the cap-and-collar scheme: the two polar caps become
# single cells, the collar in between is cut into latitude bands whose cell
# counts are proportional to band measure (cumulative rounding), band
# boundaries are then re-placed at exact measure quantiles, and each band is
# partitioned recursively on the subsphere one dimension down.  Every cell
# has normalised measure 1/n by construction and carries a certified
# diameter bound computed from its box.
# ---------------------------------------------------------------------------

def _chord(w: float) -> float:
    return 2.0 if w >= math.pi else 2.0 * math.sin(0.5 * w)


def _polar_cdf(m: int, theta: float) -> float:
    """Normalised integral of sin^m on [0, theta], theta in [0, pi], m >= 1."""
    # scipy is imported only by the equal-measure partition, so commands
    # that build none never load it
    from scipy import special
    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    a = 0.5 * (m + 1)
    if theta <= 0.5 * math.pi:
        return 0.5 * float(special.betainc(a, 0.5, math.sin(theta) ** 2))
    return 1.0 - 0.5 * float(special.betainc(a, 0.5, math.sin(math.pi - theta) ** 2))


def _polar_ppf(m: int, u: float) -> float:
    """Inverse of _polar_cdf in u, clipped to [0, pi]."""
    from scipy import special
    u = min(max(u, 0.0), 1.0)
    a = 0.5 * (m + 1)
    if u <= 0.5:
        x = float(special.betaincinv(a, 0.5, 2.0 * u))
        return math.asin(min(1.0, math.sqrt(x)))
    x = float(special.betaincinv(a, 0.5, 2.0 * (1.0 - u)))
    return math.pi - math.asin(min(1.0, math.sqrt(x)))


class _Axis:
    """CDF/quantile pair for one angular axis of S^{d-1}(R)."""

    def __init__(self, d: int, axis: int):
        self.m = 0 if axis == d - 2 else d - 2 - axis
        self.hi = _TWO_PI if axis == d - 2 else math.pi

    def cdf(self, theta: float) -> float:
        if self.m == 0:
            return min(max(theta / _TWO_PI, 0.0), 1.0)
        return _polar_cdf(self.m, theta)

    def ppf(self, u: float) -> float:
        if self.m == 0:
            return min(max(u, 0.0), 1.0) * _TWO_PI
        return _polar_ppf(self.m, u)


def _box_diameter_bound(lo: np.ndarray, hi: np.ndarray) -> float:
    """Upper bound on the Euclidean diameter of the box's sphere patch."""
    diam = _chord(hi[-1] - lo[-1])
    for j in range(len(lo) - 2, -1, -1):
        w = hi[j] - lo[j]
        if lo[j] <= 0.5 * math.pi <= hi[j]:
            smax = 1.0
        else:
            smax = max(math.sin(lo[j]), math.sin(hi[j]))
        diam = math.sqrt(min(4.0, _chord(w) ** 2 + (smax * diam) ** 2))
    return min(diam, 2.0)


class RealSpherePartition:
    """n equal-measure cells of S^{d-1}(R) with a certified diameter bound.

    Each cell is an axis-aligned box in nested spherical coordinates.
    """

    def __init__(self, d: int, n: int, cells, max_diameter: float, seed: int):
        self.d = d
        self.n = n
        self.cells = cells              # list of (lo, hi) angle arrays, depth first
        self.max_diameter = max_diameter
        self.seed = seed
        self._axes = [_Axis(d, j) for j in range(d - 1)]

    def _angles_to_points(self, ang: np.ndarray) -> np.ndarray:
        n = ang.shape[0]
        x = np.empty((n, self.d))
        s = np.ones(n)
        for j in range(self.d - 2):
            x[:, j] = s * np.cos(ang[:, j])
            s = s * np.sin(ang[:, j])
        x[:, self.d - 2] = s * np.cos(ang[:, -1])
        x[:, self.d - 1] = s * np.sin(ang[:, -1])
        return x

    def sample_cell(self, i: int, count: int, substream: int = 0) -> np.ndarray:
        """Uniform points inside cell i, deterministic per (seed, i, substream);
        substream must lie in 0.._CELL_SUBSTREAMS - 1."""
        if not 0 <= substream < _CELL_SUBSTREAMS:
            raise ValueError(f"substream must lie in 0..{_CELL_SUBSTREAMS - 1}, "
                             f"not {substream}")
        lo, hi = self.cells[i]
        rng = philox_rng(self.seed, _STREAM_CELL + substream, i)
        u = rng.random((count, self.d - 1))
        ang = np.empty_like(u)
        for j, ax in enumerate(self._axes):
            flo, fhi = ax.cdf(lo[j]), ax.cdf(hi[j])
            for t in range(count):
                ang[t, j] = ax.ppf(flo + u[t, j] * (fhi - flo))
        return self._angles_to_points(ang)


def _band_counts(m: int, n: int) -> list[int]:
    """Cell counts per latitude band for n cells on a subsphere whose polar
    density is sin^m: 1 per polar cap, collar counts proportional to band
    measure at the ideal band width, rounded cumulatively.

    The band width targets the uniform ideal cell width (surface area of
    S^{m+1} per cell)^(1/(m+1)), which keeps per-axis widths balanced all
    the way down the recursion.
    """
    if n <= 2:
        return [1] * n
    theta_c = _polar_ppf(m, 1.0 / n)
    r = m + 1  # angular dimension count of the current subsphere S^r
    area = 2.0 * math.pi ** (0.5 * (r + 1)) / math.gamma(0.5 * (r + 1))
    w_ideal = (area / n) ** (1.0 / r)
    n_bands = max(1, round((math.pi - 2.0 * theta_c) / w_ideal))
    edges = np.linspace(theta_c, math.pi - theta_c, n_bands + 1)
    measures = np.array([_polar_cdf(m, edges[i + 1]) - _polar_cdf(m, edges[i])
                         for i in range(n_bands)])
    targets = np.cumsum(measures) / measures.sum() * (n - 2)
    counts, prev = [1], 0
    for t in targets:
        c = int(round(t)) - prev
        prev += c
        if c > 0:
            counts.append(c)
    counts.append(1)
    return counts


def partition_real_sphere(d: int, n: int, delta: float, seed: int) -> RealSpherePartition:
    """Partition S^{d-1}(R) into n equal-measure cells of diameter <= delta.

    Raises InfeasiblePartition when the cap-and-collar scheme cannot certify
    the bound with n cells (the reported bound is this scheme's own, not a
    universal optimum).
    """
    if d < 2:
        raise ValueError("real dimension must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < delta <= 2.0:
        raise ValueError("delta must lie in (0, 2]")
    axes = [_Axis(d, j) for j in range(d - 1)]
    cells = []

    def build(axis, lo, hi, count):
        if count == 1:
            cells.append((lo, hi))
            return
        ax = axes[axis]
        if axis == d - 2:
            # circle: equal arcs
            edges = np.linspace(0.0, _TWO_PI, count + 1)
            for i in range(count):
                clo = lo.copy(); chi = hi.copy()
                clo[axis], chi[axis] = edges[i], edges[i + 1]
                cells.append((clo, chi))
            return
        counts = _band_counts(ax.m, count)
        cum = np.cumsum(counts)
        cuts = np.array([ax.ppf(c / count) for c in cum[:-1]])
        if np.any(np.diff(cuts) <= 0.0) or (cuts.size and not (0.0 < cuts[0] and cuts[-1] < math.pi)):
            raise InfeasiblePartition(
                f"band quantiles collapsed on axis {axis}; n={n} exceeds float resolution")
        lo_b = 0.0
        for i, c in enumerate(counts):
            hi_b = math.pi if i == len(counts) - 1 else float(cuts[i])
            blo = lo.copy(); bhi = hi.copy()
            blo[axis], bhi[axis] = lo_b, hi_b
            build(axis + 1, blo, bhi, c)
            lo_b = hi_b

    lo0 = np.zeros(d - 1)
    hi0 = np.array([ax.hi for ax in axes])
    build(0, lo0, hi0, n)
    max_diam = max(_box_diameter_bound(lo, hi) for lo, hi in cells)
    if max_diam > delta + GEOM_TOL:
        raise InfeasiblePartition(
            f"n={n} cells on S^{d-1}(R) certify diameter {max_diam:.6f} > delta={delta}")
    return RealSpherePartition(d, n, cells, max_diam, seed)
