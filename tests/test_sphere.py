import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from rtlab import sphere as S

# ---------------------------------------------------------------------------
# The paper's geometric checks: the isometry's forward map, the cap-measure
# bounds, the two-set distance, the rhombus search, and cell location and
# measure in an equal-measure partition.  No command runs them; the tests
# check them on sampled data.
# ---------------------------------------------------------------------------

def interleave(z: np.ndarray) -> np.ndarray:
    """(x1+iy1,...,xk+iyk) -> (x1,y1,...,xk,yk), vectorised over rows.

    The distance-preserving map from S^{k-1}(C) to S^{2k-1}(R)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=np.float64)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def cap_measure_upper_bound(k: int, alpha: float) -> float:
    """Upper bound exp(-k alpha^2) on the measure of a height-(1-alpha) cap
    of S^{k-1}(C)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if k < 1:
        raise ValueError("k must be positive")
    return math.exp(-k * alpha * alpha)


def cap_measure_lower_bound(k: int, delta: float) -> float:
    """Lower bound max(0, 1/2 - sqrt(2) delta) on the measure of the cap of
    points within distance sqrt(2) - delta/sqrt(2k) of a fixed point of
    S^{k-1}(C); requires k >= 3."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if k < 3:
        raise ValueError("k must be at least 3")
    return max(0.0, 0.5 - math.sqrt(2.0) * delta)


def two_set_distance_check(A, B, nu: float) -> bool:
    """True iff max_{a in A, b in B} |a - b| >= 2 - nu (closed, GEOM_TOL slack)."""
    ra = interleave(A)
    rb = interleave(B)
    if ra.size == 0 or rb.size == 0:
        raise ValueError("A and B must be nonempty")
    # |a-b|^2 = 2 - 2 <a, b> on unit vectors
    min_ip = float(np.min(ra @ rb.T))
    dmax = math.sqrt(max(0.0, 2.0 - 2.0 * min_ip))
    return dmax >= (2.0 - nu) - S.GEOM_TOL


def rhombus_search(P, Q, mu: float):
    """Search for p1, p2 in P and q1, q2 in Q with |p1-p2| >= 2-mu,
    |q1-q2| >= 2-mu and all four cross distances <= sqrt(2)-mu.

    Exhaustive over all quadruples: any witness quadruple must consist of a
    far pair of P and a far pair of Q, so enumerating far pairs first loses
    nothing.  No witness exists for genuine unit vectors; a non-None return
    indicates corrupted input upstream.
    """
    if not 0.0 < mu < 0.25:
        raise ValueError("mu must lie in (0, 1/4)")
    p = np.asarray(P, dtype=np.float64)
    q = np.asarray(Q, dtype=np.float64)

    def far_pairs(x):
        idx = np.argwhere(np.triu(S.almost_antipodal(x @ x.T, mu), k=1))
        return [tuple(ij) for ij in idx]

    fp = far_pairs(p)
    if not fp:
        return None
    fq = far_pairs(q)
    if not fq:
        return None
    close = S.near(p @ q.T, mu)
    for i1, i2 in fp:
        for j1, j2 in fq:
            if close[i1, j1] and close[i1, j2] and close[i2, j1] and close[i2, j2]:
                return (p[i1].copy(), p[i2].copy(), q[j1].copy(), q[j2].copy())
    return None


def cell_measure(partition, i: int) -> float:
    """The measure of the partition's cell i: the product of its box's
    one-dimensional quantile spans."""
    lo, hi = partition.cells[i]
    meas = 1.0
    for j, ax in enumerate(partition._axes):
        meas *= ax.cdf(hi[j]) - ax.cdf(lo[j])
    return meas


@dataclass(frozen=True)
class _Node:
    axis: int
    cuts: np.ndarray          # internal boundaries, ascending
    children: tuple           # _Node or int cell id per bucket


def _split_tree(cells, axis: int, first: int, last: int):
    """The split tree of cells[first:last], boxes listed depth first that
    share their bounds on the axes before axis: a cell id, or a _Node with
    one bucket per run of cells with equal bounds on axis."""
    if last - first == 1:
        return first
    starts = [i for i in range(first + 1, last)
              if cells[i][0][axis] != cells[i - 1][0][axis]]
    cuts = np.array([cells[i][0][axis] for i in starts])
    bounds = [first, *starts, last]
    return _Node(axis, cuts, tuple(_split_tree(cells, axis + 1, a, b)
                                   for a, b in zip(bounds, bounds[1:])))


def _points_to_angles(d: int, pts: np.ndarray) -> np.ndarray:
    """Nested spherical coordinates of points of S^{d-1}(R) (normalised first)."""
    pts = np.asarray(pts, dtype=np.float64)
    nrm = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / nrm
    n = pts.shape[0]
    ang = np.empty((n, d - 1))
    tail = np.sqrt(np.cumsum(pts[:, ::-1] ** 2, axis=1))[:, ::-1]
    for j in range(d - 2):
        ang[:, j] = np.arctan2(tail[:, j + 1], pts[:, j])
    ang[:, -1] = np.mod(np.arctan2(pts[:, -1], pts[:, -2]), 2.0 * math.pi)
    return ang


def locate(partition, points) -> np.ndarray:
    """Cell index for each point; total on the whole sphere."""
    tree = _split_tree(partition.cells, 0, 0, partition.n)
    ang = _points_to_angles(partition.d, points)
    out = np.empty(ang.shape[0], dtype=np.int64)
    stack = [(tree, np.arange(ang.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, int):
            out[idx] = node
            continue
        bucket = np.searchsorted(node.cuts, ang[idx, node.axis], side="right")
        for ci, child in enumerate(node.children):
            stack.append((child, idx[bucket == ci]))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimators: references for the cap bounds and the partition
# ---------------------------------------------------------------------------

_STREAM_MC = 1
_STREAM_SAMPLE = 30  # beside cbe's 10s and mbe's 20s, clear of the cell streams
_MC_CHUNK = 1 << 15


def _chunked_count(samples: int, seed: int, stream: int, substream_base: int,
                   count):
    """Sum of count(rng, size) over chunks of at most _MC_CHUNK samples;
    chunk i draws from philox_rng(seed, stream, substream_base + i)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    return sum(count(S.philox_rng(seed, stream, substream_base + ci),
                     min(_MC_CHUNK, samples - ci * _MC_CHUNK))
               for ci in range((samples + _MC_CHUNK - 1) // _MC_CHUNK))


def _mc_first_coord_fraction(d: int, threshold: float, samples: int, seed: int,
                             substream_base: int):
    """Fraction of uniform points on S^{d-1}(R) with first coordinate at
    least `threshold`, plus its binomial standard error."""

    def count(rng, size):
        x = rng.standard_normal((size, d))
        nrm = np.linalg.norm(x, axis=1)
        return int(np.count_nonzero(x[:, 0] >= threshold * nrm))

    hits = _chunked_count(samples, seed, _STREAM_MC, substream_base, count)
    phat = hits / samples
    se = math.sqrt(max(phat * (1.0 - phat), 1.0 / samples) / samples)
    return phat, se


def mc_cap_height_measure(k: int, alpha: float, samples: int, seed: int):
    """Monte Carlo measure of a cap of height 1-alpha on S^{k-1}(C)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    return _mc_first_coord_fraction(2 * k, alpha, samples, seed, 0)


def mc_cap_radius_measure(k: int, radius: float, samples: int, seed: int):
    """Monte Carlo measure of {x : |x - pole| <= radius} on S^{k-1}(C)."""
    if not 0.0 < radius <= 2.0:
        raise ValueError("radius must lie in (0, 2]")
    threshold = 1.0 - radius * radius / 2.0
    return _mc_first_coord_fraction(2 * k, threshold, samples, seed, 1 << 20)


def monte_carlo_cell_counts(partition, samples: int, seed: int) -> np.ndarray:
    """Hit counts per cell for uniform sphere samples (counter-keyed chunks)."""

    def count(rng, size):
        pts = S.sample_real_sphere(partition.d, size, rng)
        return np.bincount(locate(partition, pts), minlength=partition.n)

    return _chunked_count(samples, seed, _STREAM_SAMPLE, 0, count)


# ---------------------------------------------------------------------------
# isometry
# ---------------------------------------------------------------------------

def test_interleave_identity_case():
    assert np.array_equal(interleave(np.array([1 + 0j, 0j])), [1, 0, 0, 0])


def test_interleave_interleaving():
    assert np.array_equal(interleave(np.array([0j, 1j])), [0, 0, 0, 1])
    assert np.array_equal(interleave(np.array([[1 + 2j, 3 - 4j]])), [[1, 2, 3, -4]])


def test_isometry_preserves_distances():
    # oracle: compute |z - z'| and |phi(z) - phi(z')| independently
    rng = S.philox_rng(42)
    pts = S.sample_complex_sphere(5, 200, rng)
    for i in range(0, 200, 2):
        z, zp = pts[i], pts[i + 1]
        d_complex = np.linalg.norm(z - zp)
        d_real = np.linalg.norm(interleave(z) - interleave(zp))
        assert abs(d_complex - d_real) <= 1e-12


def test_round_trip_real_complex():
    rng = S.philox_rng(7)
    z = S.sample_complex_sphere(4, 10, rng)
    back = S.uninterleave(interleave(z))
    assert np.allclose(back, z)


# ---------------------------------------------------------------------------
# cap measures
# ---------------------------------------------------------------------------

def test_cap_upper_bound_values():
    assert cap_measure_upper_bound(5, 0.0) == 1.0
    assert math.isclose(cap_measure_upper_bound(10, 0.5), math.exp(-2.5))
    with pytest.raises(ValueError):
        cap_measure_upper_bound(10, 1.0)
    with pytest.raises(ValueError):
        cap_measure_upper_bound(10, -0.1)


def test_cap_lower_bound_values():
    assert math.isclose(cap_measure_lower_bound(5, 0.1), 0.5 - 0.1 * math.sqrt(2))
    assert cap_measure_lower_bound(5, 0.4) == 0.0  # clamped
    with pytest.raises(ValueError):
        cap_measure_lower_bound(2, 0.1)
    with pytest.raises(ValueError):
        cap_measure_lower_bound(5, 0.0)


def test_mc_cap_upper_bound_respected():
    # measure of a height-(1-alpha) cap stays below exp(-k alpha^2)
    k, alpha = 40, 0.3
    est, se = mc_cap_height_measure(k, alpha, samples=200_000, seed=11)
    assert est <= math.exp(-k * alpha**2) + 4 * se


def test_mc_cap_lower_bound_respected():
    k, delta = 50, 0.2
    radius = math.sqrt(2) - delta / math.sqrt(2 * k)
    est, se = mc_cap_radius_measure(k, radius, samples=200_000, seed=12)
    assert est >= cap_measure_lower_bound(k, delta) - 4 * se


def test_mc_same_seed_same_estimate():
    samples = 2 * _MC_CHUNK + 4_464          # three chunks, the last partial
    a = mc_cap_height_measure(10, 0.2, samples=samples, seed=5)
    b = mc_cap_height_measure(10, 0.2, samples=samples, seed=5)
    assert a == b
    assert mc_cap_height_measure(10, 0.2, samples=samples, seed=6) != a


# ---------------------------------------------------------------------------
# two-set distance and rhombus search
# ---------------------------------------------------------------------------

def _e(k, i):
    v = np.zeros(k, dtype=complex)
    v[i] = 1.0
    return v


def test_two_set_antipodal():
    A = np.array([_e(3, 0)])
    B = np.array([-_e(3, 0)])
    assert two_set_distance_check(A, B, nu=0.0)


def test_two_set_same_point():
    A = np.array([_e(3, 0)])
    assert not two_set_distance_check(A, A, nu=1.0)


def test_two_set_hemispheres_experiment():
    # samples from two measure-1/2 hemispheres always straddle distance 2 - nu
    k, nu = 30, 0.5
    hits = 0
    for seed in range(50):
        rng = S.philox_rng(seed, 99)
        pts = S.sample_complex_sphere(k, 1000, rng)
        sign = interleave(pts)[:, 0] >= 0
        A, B = pts[sign], pts[~sign]
        if A.shape[0] and B.shape[0] and two_set_distance_check(A, B, nu):
            hits += 1
    assert hits == 50


def test_rhombus_orthogonal_axes():
    P = np.array([[1, 0, 0, 0], [-1, 0, 0, 0]], dtype=float)
    Q = np.array([[0, 1, 0, 0], [0, -1, 0, 0]], dtype=float)
    assert rhombus_search(P, Q, mu=0.1) is None


def test_rhombus_no_far_pair():
    P = np.array([[1, 0, 0, 0]], dtype=float)
    assert rhombus_search(P, P, mu=0.2) is None


def test_rhombus_domain():
    P = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        rhombus_search(P, P, mu=0.3)


def test_rhombus_exhaustive_random_sample():
    # exhaustive over all quadruples of a 200-point sample on S^3(R);
    # guaranteed empty for genuine unit vectors
    rng = S.philox_rng(3, 17)
    P = S.sample_real_sphere(4, 200, rng)
    Q = S.sample_real_sphere(4, 200, rng)
    assert rhombus_search(P, Q, mu=0.2) is None


def test_rhombus_structured_antipodal_pairs():
    # antipodal pairs on orthogonal axes: cross distances are sqrt(2) > sqrt(2)-mu
    rng = S.philox_rng(4, 18)
    noise = 1e-4 * rng.standard_normal((4, 4))
    P = np.array([[1, 0, 0, 0], [-1, 0, 0, 0]], dtype=float) + noise[:2]
    Q = np.array([[0, 0, 1, 0], [0, 0, -1, 0]], dtype=float) + noise[2:]
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    assert rhombus_search(P, Q, mu=0.05) is None


def test_rhombus_finds_a_witness_among_non_unit_vectors():
    # inner products -8 within each pair and 1 across: far pairs whose cross
    # pairs are all near, which unit vectors cannot realise
    P = np.array([[1.0, 0, 3], [1.0, 0, -3]])
    Q = np.array([[1.0, 3, 0], [1.0, -3, 0]])
    witness = rhombus_search(P, Q, mu=0.2)
    assert witness is not None
    assert np.array_equal(np.vstack(witness), np.vstack([P, Q]))


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.5])
def test_predicates_match_the_distances_at_every_mu(mu):
    """All 160,000 ordered pairs of 400 points of S^4, the diagonal included,
    against the distance definitions.  Past sqrt(2) no pair is near, and
    past 2 every pair is almost antipodal."""
    x = S.sample_real_sphere(5, 400, S.philox_rng(33))
    dist = np.linalg.norm(x[:, None] - x[None], axis=2)
    ip = x @ x.T
    near = S.near(ip, mu)
    far = S.almost_antipodal(ip, mu)
    assert np.array_equal(near, dist <= math.sqrt(2) - mu)
    assert np.array_equal(far, dist >= 2 - mu)
    assert near.any() == (mu < math.sqrt(2)) and far.all() == (mu > 2)


def test_near_is_the_distance_test():
    mu = 0.2
    rng = S.philox_rng(32)
    x = S.sample_real_sphere(3, 4000, rng)
    y = S.sample_real_sphere(3, 4000, rng)
    dist = np.linalg.norm(x - y, axis=1)
    clear = np.abs(dist - (math.sqrt(2) - mu)) > 1e-6
    got = S.near(np.sum(x * y, axis=1), mu)
    assert np.array_equal(got[clear], dist[clear] <= math.sqrt(2) - mu)
    assert got[clear].any() and not got[clear].all()
    # closed at the boundary: |x - y| = sqrt(2) - mu exactly, no slack beyond
    theta = 2 * math.asin((math.sqrt(2) - mu) / 2)
    assert S.near(math.cos(theta), mu)
    assert not S.near(math.cos(theta) - 1e-6, mu)


def test_almost_antipodal_is_the_distance_test():
    mu = 0.2
    rng = S.philox_rng(31)
    x = S.sample_real_sphere(3, 4000, rng)
    y = -x + 1.5 * S.sample_real_sphere(3, 4000, rng)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    dist = np.linalg.norm(x - y, axis=1)
    clear = np.abs(dist - (2 - mu)) > 1e-6
    got = S.almost_antipodal(np.sum(x * y, axis=1), mu)
    assert np.array_equal(got[clear], dist[clear] >= 2 - mu)
    assert got[clear].any() and not got[clear].all()
    # closed at the boundary: |x - y| = 2 - mu exactly, and no slack beyond it
    theta = 2 * math.asin((2 - mu) / 2)
    assert S.almost_antipodal(math.cos(theta), mu)
    assert not S.almost_antipodal(math.cos(theta) + 1e-6, mu)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_circle_partition_quarters():
    # S^0(C) ~ the circle: four quarter arcs, each of measure 1/4, diameter sqrt 2
    part = S.partition_real_sphere(2, 4, delta=1.5, seed=0)
    assert part.n == 4
    assert math.isclose(part.max_diameter, math.sqrt(2), rel_tol=1e-12)
    for i in range(4):
        assert math.isclose(cell_measure(part, i), 0.25, abs_tol=1e-12)


def test_single_cell_partition():
    part = S.partition_real_sphere(4, 1, delta=2.0, seed=0)
    assert part.n == 1
    assert part.max_diameter == 2.0
    with pytest.raises(S.InfeasiblePartition):
        S.partition_real_sphere(4, 1, delta=0.5, seed=0)


def test_partition_rejects_undersized_n():
    # a diameter-0.4 set on S^5(R) has measure below 1/5000, so no equal
    # partition of that size can meet the bound; the scheme must refuse
    with pytest.raises(S.InfeasiblePartition):
        S.partition_real_sphere(6, 5000, delta=0.4, seed=1)


def test_partition_input_validation():
    with pytest.raises(ValueError):
        S.partition_real_sphere(0, 4, 1.0, 0)
    with pytest.raises(ValueError):
        S.partition_real_sphere(4, 0, 1.0, 0)
    with pytest.raises(ValueError):
        S.partition_real_sphere(4, 4, 2.5, 0)


def test_partition_representatives_and_coverage():
    part = S.partition_real_sphere(6, 5000, delta=1.3, seed=1)
    # one sample from each cell lies in that cell
    representatives = np.vstack([part.sample_cell(i, 1) for i in range(part.n)])
    assert np.array_equal(locate(part, representatives), np.arange(part.n))
    # locate is total on random points
    rng = S.philox_rng(20)
    pts = S.sample_real_sphere(part.d, 100_000, rng)
    idx = locate(part, pts)
    assert idx.min() >= 0 and idx.max() < part.n
    # measures are exactly 1/n by construction
    meas = np.array([cell_measure(part, i) for i in range(part.n)])
    assert np.max(np.abs(meas - 1 / part.n)) < 1e-15
    # sampled points stay inside their cell and within the diameter bound
    for i in (0, 123, part.n - 1):
        q = part.sample_cell(i, 100, substream=7)
        assert np.all(locate(part, q) == i)
        g = q @ q.T
        diam_emp = math.sqrt(max(0.0, 2 - 2 * g.min()))
        assert diam_emp <= S._box_diameter_bound(*part.cells[i]) + 1e-9


def test_partition_equal_measure_monte_carlo():
    # every cell's hit count within a family-wise bound: an exact partition
    # has its largest deviation over all n cells past z binomial sigmas with
    # probability at most 1e-4 (z = 5.61 at n = 5000; a per-cell 4 sigma
    # fails an exact partition on about one draw in four).  The chi^2 sum
    # over all cells within its 1e-4 upper quantile catches a bias spread
    # over many cells that no single cell shows
    from scipy import stats
    n, samples = 5000, 10**6
    part = S.partition_real_sphere(6, n, delta=1.3, seed=1)
    counts = monte_carlo_cell_counts(part, samples, seed=2)
    assert counts.sum() == samples
    expected = samples / n
    z = stats.norm.isf(1e-4 / (2 * n))
    assert np.max(np.abs(counts - expected)) <= z * math.sqrt(samples * (1 / n) * (1 - 1 / n))
    assert np.sum((counts - expected) ** 2 / expected) <= stats.chi2.isf(1e-4, n - 1)


def test_partition_mc_seed_determinism():
    part = S.partition_real_sphere(4, 32, delta=2.0, seed=3)
    samples = _MC_CHUNK + 17_232             # two chunks, the last partial
    c1 = monte_carlo_cell_counts(part, samples, seed=4)
    c2 = monte_carlo_cell_counts(part, samples, seed=4)
    assert np.array_equal(c1, c2) and c1.sum() == samples
    # the chunks are keyed by index: the first chunk alone repeats its counts
    first = monte_carlo_cell_counts(part, _MC_CHUNK, seed=4)
    assert np.all(first <= c1) and not np.array_equal(first, c1)


def test_mc_rejects_no_samples():
    part = S.partition_real_sphere(4, 6, delta=2.0, seed=1)
    with pytest.raises(ValueError, match="samples"):
        monte_carlo_cell_counts(part, 0, seed=1)
    with pytest.raises(ValueError, match="samples"):
        mc_cap_height_measure(10, 0.2, samples=0, seed=1)


def test_partition_determinism():
    a = S.partition_real_sphere(4, 10, delta=2.0, seed=9)
    b = S.partition_real_sphere(4, 10, delta=2.0, seed=9)
    for i in range(a.n):
        assert np.array_equal(a.sample_cell(i, 1), b.sample_cell(i, 1))


# S^1 is uniform in angle; S^2 and S^3 run the betainc / betaincinv path of
# the polar axes, which no golden CLI output reaches
PARTITION_POINTS_SHA256 = {
    (3, 40): "582ecd50b053040d100d66317f87d68a8c9176e7a3ed999cb0f74cd45e8f6b30",
    (4, 60): "2bcc9da08c9fb3b14b3a22bc21311d8b97bcc4e4927156bf848a282398878881",
}


@pytest.mark.parametrize("d, n", sorted(PARTITION_POINTS_SHA256))
def test_partition_points_are_pinned(d, n):
    part = S.partition_real_sphere(d, n, delta=2.0, seed=7)
    pts = np.vstack([part.sample_cell(i, 2, substream=1) for i in range(n)])
    assert hashlib.sha256(pts.tobytes()).hexdigest() == PARTITION_POINTS_SHA256[d, n]
    assert np.array_equal(locate(part, pts), np.repeat(np.arange(n), 2))


def test_philox_keeps_every_seed_bit():
    # a seed at or above 2^63 once went through float64: 2^63 and 2^63 + 1
    # drew one stream, and 2^64 - 1 drew seed 0's
    draws = {seed: S.philox_rng(seed, 10).integers(0, 2**62, 4).tolist()
             for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)}
    assert len({tuple(d) for d in draws.values()}) == 4
    # seeds are taken mod 2^64
    assert S.philox_rng(-1, 10).integers(0, 2**62, 4).tolist() == draws[2**64 - 1]


def test_stream_ids_are_distinct():
    # sample_cell draws from _STREAM_CELL + substream; the library uses
    # substreams 0 and 1, and every substream it accepts must stay clear of
    # every other consumer of the same seed
    from rtlab import cbe, cli, mbe, weighted
    streams = [_STREAM_MC, *(S._STREAM_CELL + s for s in range(S._CELL_SUBSTREAMS)),
               _STREAM_SAMPLE,
               cbe._STREAM_W, cbe._STREAM_Z,
               mbe._STREAM_POINTS, mbe._STREAM_DUPS, mbe._STREAM_RETAIN,
               weighted._STREAM_NUMERIC, cli._STREAM_GOFA, cli._STREAM_DOMINANCE]
    assert len(set(streams)) == len(streams)


@pytest.mark.parametrize("substream", [-1, S._CELL_SUBSTREAMS, 9, 18])
def test_sample_cell_rejects_substreams_outside_the_cell_range(substream):
    part = S.partition_real_sphere(4, 10, delta=2.0, seed=9)
    with pytest.raises(ValueError, match="substream"):
        part.sample_cell(0, 1, substream=substream)
