"""Multipartite Bollobas-Erdos graphs.

q vertex classes, each a copy of a high dimensional Borsuk graph B(ell)
built through the hypergraph pipeline {Q_h} -> B -> B' -> B(ell):

  * Q_h splits the r = 2^ell binary strings of length ell by their h-th bit;
  * B is an r-uniform geometric hypergraph on ell-tuples of sphere points;
    its hyperedges, the rows of one (E, r) int64 array that every later
    stage reads and writes, realise every Q_h split by an almost antipodal
    pair of projections (|x - y| >= 2 - mu);
  * B' optionally blows every point up into t^(1/ell) near-duplicates,
    retains blown-up hyperedge copies at random, and deletes every small
    dense subconfiguration;
  * B(ell) is the shadow graph of B'.

Cross edges between classes i and i' require |u_h - v_{h'}| <= sqrt(2) - mu
for every (i,i')-related coordinate pair (h, h'), where relatedness is
derived from a proper (q-1)-edge colouring of K_q.

At desk scale the equal-measure partition with diameter mu/4 is far out of
reach, and hyperedges only exist when the point set contains almost
antipodal pairs, so the default point scheme samples m/2 uniform points and
adds their exact antipodes.  The partition route is kept as an option, and
an explicit point set can be supplied to build_base_hypergraph for
experiments.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import sphere
from .analysis import LabeledGraph, _mirror, _or_block, _popcount, _set_edges, _zero_rows
from .sphere import GEOM_TOL

MAX_Q_FAMILY_ELL = 6
MAX_BASE_VERTICES = 10 ** 6
MAX_ASSIGNMENTS = 10 ** 5
MAX_BLOWUP_EDGES = 2 * 10 ** 5
MAX_VERTICES = 2 ** 14          # bounds the N x N bool cross blocks and their temporaries

_STREAM_POINTS = 20
_STREAM_DUPS = 21
_STREAM_RETAIN = 22


def _int_root(t: int, ell: int) -> int | None:
    """The integer x with x^ell = t, or None; exact at any size."""
    if t < 1 or ell >= t.bit_length():     # t < 1, or 1 <= t^(1/ell) < 2
        return 1 if t == 1 else None
    x = 1 << -(-t.bit_length() // ell)     # Newton on integers, from above
    while (y := ((ell - 1) * x + t // x ** (ell - 1)) // ell) < x:
        x = y
    return x if x ** ell == t else None


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MbeParams:
    ell: int
    p: int
    q: int
    k: int          # spheres are S^k(R), i.e. unit spheres in R^{k+1}
    m: int          # points per sphere
    seed: int
    epsilon: float = 0.05
    t: int = 1      # blow-up multiplicity, a perfect ell-th power
    retention: float = 0.5
    point_mode: str = "antipodal"

    def __post_init__(self):
        if self.q < 2 or self.q % 2:
            raise ValueError("q must be even and at least 2")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.ell < self.p * (self.q - 1):
            raise ValueError("ell must be at least p (q - 1)")
        if not 1 <= self.k <= sys.float_info.max:   # mu is a float of k
            raise ValueError("k must be at least 1 and at most the largest float")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if _int_root(self.t, self.ell) is None:
            raise ValueError("t must be a perfect ell-th power")
        if not 0.0 < self.retention <= 1.0:
            raise ValueError("retention must lie in (0, 1]")
        if self.point_mode not in ("antipodal", "partition"):
            raise ValueError("point_mode must be 'antipodal' or 'partition'")
        if self.point_mode == "antipodal" and self.m % 2:
            raise ValueError("antipodal point mode needs even m")
        if self.mu > math.sqrt(2):
            sphere.hierarchy_advisory(
                self, f"mu={self.mu:.4f} > sqrt(2); no two points are near, so "
                "when ell > p every cross block is empty")

    @property
    def mu(self) -> float:
        return self.epsilon / math.sqrt(self.k)

    @property
    def r(self) -> int:
        return 2 ** self.ell

    @property
    def zeta(self) -> float:
        return math.exp(-self.k * self.mu / (3 * 2 ** (2 * self.ell)))

    def to_dict(self) -> dict:
        return {"ell": self.ell, "p": self.p, "q": self.q, "k": self.k,
                "m": self.m, "epsilon": self.epsilon, "t": self.t,
                "retention": self.retention, "seed": self.seed,
                "point_mode": self.point_mode, "mu": self.mu,
                "r": self.r, "zeta": self.zeta}


# ---------------------------------------------------------------------------
# proper edge colouring of K_q (round-robin 1-factorisation)
# ---------------------------------------------------------------------------

def proper_edge_coloring(q: int) -> dict:
    """Colour map {i, j} -> colour in [q-1]; each colour class is a perfect
    matching (circle method; classes are 0-based, colours 1-based)."""
    if q < 2 or q % 2:
        raise ValueError("q must be even and at least 2")
    coloring = {}
    fixed = q - 1
    for rnd in range(q - 1):
        coloring[frozenset((fixed, rnd))] = rnd + 1
        for i in range(1, q // 2):
            a = (rnd + i) % (q - 1)
            b = (rnd - i) % (q - 1)
            coloring[frozenset((a, b))] = rnd + 1
    return coloring


def related_coordinates(i: int, ip: int, params: MbeParams, coloring: dict) -> set:
    """(i,i')-related coordinate pairs (1-based), exactly ell - p of them.

    (h, h') is related iff h = (c_{ij}-1) p + s and h' = (c_{i'j}-1) p + s for
    some third class j and s in [p], or h = h' > p (q - 1).
    """
    if i == ip:
        raise ValueError("classes must be distinct")
    out = set()
    for j in range(params.q):
        if j in (i, ip):
            continue
        cij = coloring[frozenset((i, j))]
        cipj = coloring[frozenset((ip, j))]
        for s in range(1, params.p + 1):
            out.add(((cij - 1) * params.p + s, (cipj - 1) * params.p + s))
    for h in range(params.p * (params.q - 1) + 1, params.ell + 1):
        out.add((h, h))
    return out


# ---------------------------------------------------------------------------
# steps 1-3: the Q_h splits, the geometric hypergraph and its blow-up
# ---------------------------------------------------------------------------

class GeometricHypergraph:
    """r-uniform hypergraph on ell-tuples of sphere points.

    `vertices` is an (N, ell) int array: row v holds the point ids into
    `points` of vertex v, one per coordinate h in [ell].  `hyperedges` is an
    (E, r) int64 array (E = 0 included) of vertex ids, column i labelled by
    binary string i; whenever strings i, j differ in coordinate h, the h-th
    projections of columns i and j are almost antipodal (|x - y| >= 2 - mu).
    """

    def __init__(self, ell: int, mu: float, points: np.ndarray,
                 vertices: np.ndarray, hyperedges: np.ndarray):
        self.ell = ell
        self.r = 2 ** ell
        self.mu = mu
        self.points = points
        self.vertices = vertices
        self.hyperedges = hyperedges

    def write_hyperedges(self, path):
        with open(path, "w") as fh:
            fh.write(f"# r={self.r} vertices={len(self.vertices)}\n")
            np.savetxt(fh, self.hyperedges, fmt="%d")


def _digits(base: int, n_digits: int) -> np.ndarray:
    """(base^n_digits, n_digits) array whose row c holds the base-`base`
    digits of c, most significant first."""
    c = np.arange(base ** n_digits)
    return c[:, None] // base ** np.arange(n_digits - 1, -1, -1) % base


def default_points(params: MbeParams) -> np.ndarray:
    """Point set P on S^k(R) per the configured mode.

    antipodal: m/2 uniform points plus their exact antipodes (indices
    i and i + m/2 are antipodal), so almost antipodal pairs exist and the
    Borsuk structure is non-degenerate at desk scale.
    partition: one uniform point from each cell of an equal-measure
    partition with diameter mu/4 (usually infeasible below astronomical m).
    """
    if params.point_mode == "partition":
        part = sphere.partition_real_sphere(params.k + 1, params.m,
                                            params.mu / 4, params.seed)
        return np.vstack([part.sample_cell(i, 1) for i in range(params.m)])
    rng = sphere.philox_rng(params.seed, _STREAM_POINTS)
    half = sphere.sample_real_sphere(params.k + 1, params.m // 2, rng)
    return np.vstack([half, -half])


def _coordinate_assignments(far: np.ndarray, strings: np.ndarray, h: int) -> np.ndarray:
    """(count, r) int array of every map string index -> point id with
    far[x_i, x_j] for i > j whenever strings i and j differ in coordinate h,
    rows in lexicographic order; strings is the (r, ell) array of the r
    binary strings, row i the bits of i.

    Built level by level, assigning the strings alternately from the two
    sides of Q_h; the first two levels together are np.nonzero(far.T).  The
    rows are then lexsorted back into string order.  far is symmetric, so
    once both sides have a point every partial assignment extends (repeat
    its side's first point, which is far from every point of the other
    side), and no level holds fewer rows than the one before.  Gating each
    level at MAX_ASSIGNMENTS therefore raises exactly when the finished
    count exceeds it.  The first candidate mask is a copy of far.T; a later
    one has rows x m bools with rows <= MAX_ASSIGNMENTS, and exists only for
    ell >= 2, where build_base_hypergraph's vertex gate keeps m <= 1000: at
    most 10^8 bools (100 MB).
    """
    side = strings[:, h - 1]
    order = np.stack([np.flatnonzero(side == 0), np.flatnonzero(side == 1)], 1).ravel()
    rows = np.arange(far.shape[0])[:, None]
    for c in range(1, len(strings)):
        s = order[c]
        mask = np.ones((len(rows), far.shape[0]), dtype=bool)
        for j in range(1 - c % 2, c, 2):        # the other side's columns
            mask &= (far.T if s > order[j] else far)[rows[:, j]]
        if np.count_nonzero(mask) > MAX_ASSIGNMENTS:
            raise sphere.ResourceLimit("hyperedge assignment enumeration too large")
        picked, pt = np.nonzero(mask)
        rows = np.column_stack([rows[picked], pt])
    out = np.empty_like(rows)
    out[:, order] = rows
    return out[np.lexsort(out.T[::-1])]


def build_base_hypergraph(params: MbeParams, points: np.ndarray | None = None) -> GeometricHypergraph:
    """Hypergraph B on the full vertex set P^ell; vertex v is the tuple of
    base-m digits of v.

    Hyperedges are enumerated per coordinate from the almost-antipodal pair
    structure of P and combined across coordinates by broadcasting, in
    itertools.product order; this never brute-forces all m^(ell r)
    labelled tuples.  A hyperedge is kept at its first labelling.
    """
    # ell, m and m^ell are gated in that order, before any point is drawn
    if params.ell > MAX_Q_FAMILY_ELL:
        raise sphere.ResourceLimit(
            f"binary string family capped at ell <= {MAX_Q_FAMILY_ELL}")
    m = params.m if points is None else len(points)
    if m > MAX_BASE_VERTICES:
        raise sphere.ResourceLimit(f"m exceeds the desk bound {MAX_BASE_VERTICES}")
    if m ** params.ell > MAX_BASE_VERTICES:
        raise sphere.ResourceLimit(
            f"m^ell = {m ** params.ell} exceeds the desk bound {MAX_BASE_VERTICES}")
    P = default_points(params) if points is None else np.asarray(points, dtype=float)
    far = sphere.almost_antipodal(P @ P.T, params.mu)

    strings = _digits(2, params.ell)    # row i: the bits of i, most significant first
    per_coord = [_coordinate_assignments(far, strings, h)
                 for h in range(1, params.ell + 1)]
    if math.prod(len(a) for a in per_coord) > MAX_ASSIGNMENTS:
        raise sphere.ResourceLimit("hyperedge combination count too large")
    ids = np.zeros((1, params.r), dtype=np.int64)
    for a in per_coord:
        ids = (ids[:, None, :] * m + a).reshape(-1, params.r)
    # the sorted row names the vertex set; a vertex repeats within a row only
    # when mu is so large that a point is far from itself, and then each
    # repeat becomes -1, so rows with the same set share one key
    key = np.sort(ids, axis=1)
    key[:, 1:][key[:, 1:] == key[:, :-1]] = -1
    key.sort(axis=1)
    first = np.sort(np.unique(key, axis=0, return_index=True)[1])
    return GeometricHypergraph(params.ell, params.mu, P, _digits(m, params.ell),
                               ids[first])


# -- blow-up and sparsification ---------------------------------------------

def _dense(n_vertices: int, n_edges: int, zeta: float, r: int) -> bool:
    """The sparsity condition's violation, for configurations of at most r^3
    vertices: |V| + (1 + zeta - r)(|E| - 1) < r."""
    return (n_vertices <= r ** 3
            and n_vertices + (1 + zeta - r) * (n_edges - 1) < r - GEOM_TOL)


def _violators(hyperedges, zeta: float, r: int):
    """Yield each connected hyperedge subset, of at most 8 hyperedges and r^3
    vertices, that violates |V| + (1 + zeta - r)(|E| - 1) < r, as a sorted
    tuple of row indices.  Once a yield returns, the violator's last
    hyperedge counts as deleted.

    Subsets are grown one hyperedge per level, smallest first: parents in the
    order they were found, each parent's new neighbours in ascending index.
    A candidate is checked when first found, once its parents' level is
    clean.  A disconnected violator contains a connected one, so connected
    subsets suffice.  Deleting a hyperedge never creates a violator: it only
    removes the subsets that contain it, and the others stay connected and
    keep their order.  So the search carries on where it stood and yields
    what a fresh search after each deletion would find first.
    """
    edge_sets = [frozenset(e) for e in np.asarray(hyperedges).tolist()]
    incident = {}               # per vertex, its hyperedges; dead ones dropped per level
    for j, es in enumerate(edge_sets):
        for v in es:
            incident.setdefault(v, set()).add(j)
    alive = set(range(len(edge_sets)))
    frontier = [(i,) for i in range(len(edge_sets))]   # ascending tuples
    while frontier:
        nxt, seen = [], set()
        for chosen in frontier:
            if not alive.issuperset(chosen):
                continue
            verts = set().union(*(edge_sets[i] for i in chosen))
            for j in sorted(set().union(*(incident[v] for v in verts)).difference(chosen)):
                if j not in alive:
                    continue
                at = bisect.bisect(chosen, j)
                cand = chosen[:at] + (j,) + chosen[at:]
                if cand in seen:
                    continue
                seen.add(cand)
                n_verts = len(verts) + len(edge_sets[j] - verts)
                if _dense(n_verts, len(cand), zeta, r):
                    yield cand
                    alive.discard(cand[-1])
                    if cand[-1] != j:           # the parent itself is gone
                        break
                elif len(cand) < 8 and n_verts <= r ** 3:
                    nxt.append(cand)
        for inc in incident.values():
            inc &= alive
        frontier = [c for c in nxt if alive.issuperset(c)]


def find_dense_subconfig(hyperedges, zeta: float, r: int):
    """The first violator in _violators' order, as a sorted tuple of row
    indices, or None when the hyperedges are sparse.  No command calls it;
    it stays because the traced benchmark (perfbench/shims.py) wraps it by
    name."""
    return next(_violators(hyperedges, zeta, r), None)


def sparsify(hyperedges: np.ndarray, zeta: float, r: int):
    """Delete rows of the (E, r) hyperedge array, the last of each violator
    _violators yields: what deleting the last hyperedge of
    find_dense_subconfig's violator until there is none would delete.
    Returns (kept rows, deleted)."""
    dead = [bad[-1] for bad in _violators(hyperedges, zeta, r)]
    return np.delete(hyperedges, dead, axis=0), len(dead)


@dataclass(frozen=True)
class BlowupReport:
    base_edges: int
    candidate_copies: int
    retained: int
    deleted: int


def blowup_sparsify(base: GeometricHypergraph, t: int, zeta: float, seed: int,
                    retention: float = 0.5):
    """Blow up the base hypergraph by t corresponding copies per vertex,
    retain each blown-up hyperedge copy independently with the given
    probability, then delete hyperedges until no small dense subconfiguration
    remains.  Returns (B', report).

    The deletions are sparsify's: the last hyperedge of each violator, in the
    dense search's stated order, which is the alteration step of the
    probabilistic method (Alon & Spencer, ch. 3).

    t = 1 is the identity blow-up: B is returned unchanged.  Otherwise copy
    c in [t] of base vertex v, c read as ell base-t^(1/ell) digits c_h, is
    vertex v t + c with point ids v_h t^(1/ell) + c_h; copy c in [t^r] of a
    base hyperedge (v_1..v_r), c read as r base-t digits, is
    (v_1 t + c_1, ..., v_r t + c_r).  Copies are drawn for retention in base
    hyperedge order, then copy order.
    """
    ell, r = base.ell, base.r
    t_root = _int_root(t, ell)
    if t_root is None:
        raise ValueError("t must be a perfect ell-th power")
    if t == 1:
        n_edges = len(base.hyperedges)
        return base, BlowupReport(n_edges, n_edges, n_edges, 0)
    if len(base.vertices) * t > MAX_BASE_VERTICES:
        raise sphere.ResourceLimit(
            f"N t blown-up vertices exceed the desk bound {MAX_BASE_VERTICES}")
    candidates = len(base.hyperedges) * t ** r
    if candidates > MAX_BLOWUP_EDGES:
        raise sphere.ResourceLimit(
            f"blow-up would enumerate {candidates} hyperedge copies")

    m, dim = base.points.shape
    mu = base.mu
    rng = sphere.philox_rng(seed, _STREAM_DUPS)
    dup_points = np.empty((m * t_root, dim))
    for pid in range(m):
        for c in range(t_root):
            noise = rng.standard_normal(dim)
            x = base.points[pid] + (mu / 100) * noise / np.linalg.norm(noise)
            dup_points[pid * t_root + c] = x / np.linalg.norm(x)
    vertices = (base.vertices[:, None, :] * t_root + _digits(t_root, ell)).reshape(-1, ell)

    # with no base hyperedge t^r is unbounded, and there is nothing to copy
    copies = (base.hyperedges[:, None, :] * t
              + (_digits(t, r) if candidates else 0)).reshape(-1, r)
    keep = sphere.philox_rng(seed, _STREAM_RETAIN).random(candidates) < retention
    retained = copies[keep]
    kept, deleted = sparsify(retained, zeta, r)
    report = BlowupReport(len(base.hyperedges), candidates, len(retained), deleted)
    return GeometricHypergraph(ell, mu, dup_points, vertices, kept), report


# ---------------------------------------------------------------------------
# step 4: shadow graph
# ---------------------------------------------------------------------------

def shadow_graph(hypergraph: GeometricHypergraph):
    """The shadow graph's edges, u ~ v iff u != v and some hyperedge contains
    both: one k x 2 int64 array of (u, v) per column pair of the hyperedges,
    with repeats, less the pairs of a vertex repeated in a row."""
    edges = hypergraph.hyperedges
    for a, b in itertools.combinations(range(hypergraph.r), 2):
        pairs = edges[:, [a, b]]
        yield pairs[pairs[:, 0] != pairs[:, 1]]


# ---------------------------------------------------------------------------
# the final graph
# ---------------------------------------------------------------------------

class MbeGraph:
    """q classes, each a copy of B(ell), the shadow graph of the hypergraph
    B'; global ids are class * N + local.  rows holds the graph as
    LabeledGraph's packed rows: each class holds the shadow's edges, and
    classes i and i' are joined at u and v when every related coordinate
    pair (h, h') has |u_h - v_h'| <= sqrt(2) - mu."""

    def __init__(self, params: MbeParams, hypergraph: GeometricHypergraph,
                 coloring: dict, blowup_report: BlowupReport):
        self.params = params
        self.hypergraph = hypergraph
        self.coloring = coloring
        self.blowup_report = blowup_report
        N = len(hypergraph.vertices)
        q = params.q
        self.classes = q
        self.class_size = N
        self.n = N * q
        if self.n > MAX_VERTICES:
            raise sphere.ResourceLimit(
                f"the graph's {self.n} vertices exceed the desk bound {MAX_VERTICES}, "
                f"which bounds its {N} x {N} cross-block temporaries")
        rows = _zero_rows(self.n)
        for edges in shadow_graph(hypergraph):      # into every class
            _set_edges(rows, (edges + N * np.arange(q)[:, None, None]).reshape(-1, 2))

        ids = hypergraph.vertices
        near = sphere.near(hypergraph.points @ hypergraph.points.T, params.mu)

        for i, ip in itertools.combinations(range(q), 2):
            block = np.ones((N, N), dtype=bool)
            for h, hp in sorted(related_coordinates(i, ip, params, coloring)):
                block &= near[np.ix_(ids[:, h - 1], ids[:, hp - 1])]
            _or_block(rows[i * N:(i + 1) * N], block, ip * N)
        _mirror(rows)
        self.rows = rows

    def omega_bound(self) -> int:
        return 2 ** self.params.ell + 2 ** self.params.p + self.params.q - 2

    def to_labeled_graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.rows)

    def pair_density(self, i: int, ip: int) -> float:
        N = self.class_size
        return float(_popcount(self.rows[i * N:(i + 1) * N], ip * N, (ip + 1) * N).sum()) / N ** 2

    def header_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "class_sizes": {f"V{i+1}": self.class_size for i in range(self.params.q)},
                "coloring": {f"{min(a,b)},{max(a,b)}": c
                             for key, c in self.coloring.items()
                             for a, b in [tuple(sorted(key))]},
                "blowup": {"base_edges": self.blowup_report.base_edges,
                           "retained": self.blowup_report.retained,
                           "deleted": self.blowup_report.deleted}}


def build_mbe(params: MbeParams) -> MbeGraph:
    """Full pipeline: points -> B -> B' -> B(ell) -> q classes with cross
    edges; deterministic given the seed."""
    base = build_base_hypergraph(params)
    blown, report = blowup_sparsify(base, params.t, params.zeta, params.seed,
                                    params.retention)
    coloring = proper_edge_coloring(params.q)
    return MbeGraph(params, blown, coloring, report)
