"""Finite graph analytics shared by the sphere constructions.

Exact maximum-clique search (branch and bound with greedy colouring bounds),
p-independence estimation, partition density statistics, a complete-join
combinator, and the exact rational density formulas for the Ramsey-Turan
families.  Graphs are stored as bitmask adjacency rows, which keeps the
search kernels allocation-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sphere import ResourceLimit

MAX_EXACT_CLIQUE_VERTICES = 5000


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class LabeledGraph:
    """Simple undirected graph with optional vertex class labels."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: list[int], labels=None):
        self.n = n
        self.adj = adj
        self.labels = list(labels) if labels is not None else None
        if labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal vertex count")

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "LabeledGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    @classmethod
    def from_adjacency(cls, matrix, labels=None) -> "LabeledGraph":
        m = np.asarray(matrix, dtype=bool)
        if m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(m != m.T) or np.any(np.diag(m)):
            raise ValueError("adjacency must be symmetric with empty diagonal")
        rows = np.packbits(m, axis=1, bitorder="little")
        adj = [int.from_bytes(row.tobytes(), "little") for row in rows]
        return cls(m.shape[0], adj, labels)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            while rest:
                low = rest & -rest
                yield u, u + 1 + low.bit_length() - 1
                rest ^= low

    def subgraph(self, vertices) -> "LabeledGraph":
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for i, v in enumerate(vs):
            for j, w in enumerate(vs):
                if i < j and self.has_edge(v, w):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        labels = [self.labels[v] for v in vs] if self.labels else None
        return LabeledGraph(len(vs), adj, labels)

    def classes(self) -> dict:
        if self.labels is None:
            return {"all": list(range(self.n))}
        out: dict = {}
        for v, lab in enumerate(self.labels):
            out.setdefault(lab, []).append(v)
        return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# exact max clique
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueCertificate:
    size: int
    witness: tuple
    exhaustive: bool
    upper_bound: int | None = None


def _degeneracy_order(g: LabeledGraph) -> list[int]:
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        order.append(v)
        alive.remove(v)
        for w in _bits(g.adj[v]):
            if w in alive:
                deg[w] -= 1
    return order


def _greedy_clique(adj: list[int], n: int) -> list[int]:
    best: list[int] = []
    for start in range(n):
        clique = [start]
        cand = adj[start]
        while cand:
            # pick the candidate with most remaining candidates
            v = max(_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def max_clique(g: LabeledGraph, cutoff: int | None = None) -> CliqueCertificate:
    """Exact maximum clique via branch and bound with greedy-colouring bounds.

    Without a cutoff the certificate is exhaustive (size equals the clique
    number).  With cutoff c the search certifies either a clique of size
    c + 1 (witness returned) or that the clique number is at most c.
    """
    if g.n == 0:
        return CliqueCertificate(0, (), True, 0)
    if cutoff is None and g.n > MAX_EXACT_CLIQUE_VERTICES:
        raise ResourceLimit(f"exact clique search capped at {MAX_EXACT_CLIQUE_VERTICES} vertices")

    # degeneracy order improves both colouring and branching
    order = _degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in _bits(g.adj[v]):
            row |= 1 << pos[w]
        adj[pos[v]] = row

    greedy = _greedy_clique(adj, g.n)
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
# p-independence
# ---------------------------------------------------------------------------

def _find_clique(adj: list[int], mask: int, t: int):
    """A clique of size t inside mask, as a list of vertices, or None.

    Vertices are tried lowest first and each branch looks only at later
    vertices, so the first clique in that order is returned; a branch with
    fewer than t vertices left is cut, which never cuts a success.
    """
    if t <= 0:
        return []
    if mask.bit_count() < t:
        return None
    if t == 1:
        return [(mask & -mask).bit_length() - 1]
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        sub = _find_clique(adj, adj[v] & rest, t - 1)
        if sub is not None:
            return [v, *sub]
        if rest.bit_count() < t:
            return None
    return None


def p_independence(g: LabeledGraph, p: int, exact_limit: int = 40):
    """Largest vertex set inducing a K_p-free subgraph.

    Returns (lower_bound, upper_bound, exact).  Exhaustive search is used up
    to exact_limit vertices; beyond that a greedy lower bound and a disjoint
    K_p packing upper bound are reported.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    adj = g.adj
    if g.n <= exact_limit:
        order = sorted(range(g.n), key=lambda v: -g.degree(v))
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

    # greedy lower bound
    chosen = 0
    count = 0
    for v in sorted(range(g.n), key=lambda u: g.degree(u)):
        if _find_clique(adj, adj[v] & chosen, p - 1) is None:
            chosen |= 1 << v
            count += 1
    # disjoint K_p packing upper bound: a K_p-free set misses at least one
    # vertex of every vertex-disjoint K_p copy
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


# ---------------------------------------------------------------------------
# density statistics and joins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    inner_edges: dict
    pair_densities: dict
    global_density: float
    edge_count: int


def density_report(g: LabeledGraph) -> DensityReport:
    """Exact per-class and per-pair densities; vertices without labels form a
    single class."""
    classes = g.classes()
    names = sorted(classes)
    masks = {name: sum(1 << v for v in classes[name]) for name in names}
    inner = {}
    pair = {}
    for i, a in enumerate(names):
        ma = masks[a]
        inner[a] = sum((g.adj[v] & ma).bit_count() for v in classes[a]) // 2
        for b in names[i + 1:]:
            mb = masks[b]
            cross = sum((g.adj[v] & mb).bit_count() for v in classes[a])
            pair[(a, b)] = cross / (len(classes[a]) * len(classes[b]))
    m = g.edge_count()
    dens = 0.0 if g.n < 2 else m / (g.n * (g.n - 1) / 2)
    return DensityReport(inner, pair, dens, m)


def complete_join(graphs) -> LabeledGraph:
    """Disjoint union plus all cross edges between distinct inputs."""
    graphs = list(graphs)
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    adj = [0] * total
    labels = []
    full = (1 << total) - 1
    for gi, g in enumerate(graphs):
        off = offsets[gi]
        block = ((1 << g.n) - 1) << off
        for v in range(g.n):
            row = (full & ~block) | (g.adj[v] << off)
            adj[off + v] = row
        if g.labels is not None:
            labels.extend(f"g{gi}.{lab}" for lab in g.labels)
        else:
            labels.extend(f"g{gi}" for _ in range(g.n))
    return LabeledGraph(total, adj, labels)


# ---------------------------------------------------------------------------
# density formulas (exact rationals)
# ---------------------------------------------------------------------------

def rho_star(p: int, q: int):
    """Conjectured Ramsey-Turan density for K_q with p-independence, as an
    exact rational, along with the decomposition q = p t + r + 2."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if q < p + 2:
        raise ValueError("q must be at least p + 2")
    t, r = divmod(q - 2, p)
    value = Fraction((t - 1) * (2 * p - r - 1) + r + 1,
                     t * (2 * p - r - 1) + r + 1)
    return value, (t, r)


@dataclass(frozen=True)
class Theorem13Report:
    ell: int
    p: int
    q: int
    p_star: int
    q_star: int
    lower_bound: Fraction
    rho_star_value: Fraction
    exceeds_conjecture: bool
    strict_expected: bool
    equality_window: bool


def theorem13_density(ell: int, p: int, q: int) -> Theorem13Report:
    """Multipartite construction density (1/2^(ell-p)) (1 - 1/q) for the
    K_{q*}-free, 2^ell-independence regime, compared against rho_star."""
    if q < 2 or q % 2:
        raise ValueError("q must be even and at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    if ell < p * (q - 1):
        raise ValueError("ell must be at least p (q - 1)")
    p_star = 2 ** ell
    q_star = 2 ** ell + 2 ** p + q - 1
    bound = Fraction(1, 2 ** (ell - p)) * Fraction(q - 1, q)
    conj, _ = rho_star(p_star, q_star)
    return Theorem13Report(
        ell=ell, p=p, q=q, p_star=p_star, q_star=q_star,
        lower_bound=bound, rho_star_value=conj,
        exceeds_conjecture=bound > conj,
        strict_expected=q > 2,
        equality_window=q * (q - 2) <= 2 ** p <= q * q,
    )


# ---------------------------------------------------------------------------
# edge-list interchange format
# ---------------------------------------------------------------------------

def write_edge_list(path, g: LabeledGraph, comments=(), classes=None):
    """Write the `u v` edge format (u < v, ascending): one `# ` line per
    comment, then `# n=...`, then `# <classes>` when given."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"# n={g.n}\n")
        if classes is not None:
            fh.write(f"# {classes}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def _bad_line(path, lineno: int, line: str, n):
    bound = "" if n is None else f" below n={n}"
    return ValueError(f"{path}:{lineno}: bad line {line!r}; expected '# n=<count>' "
                      f"or 'u v' with distinct vertex ids{bound}")


def read_edge_list(path):
    """Read the `u v` edge format; `# n=...` comments pin the vertex count.

    A line that is not UTF-8, a malformed line, a `# n=` line that contradicts
    an earlier one, a loop, a vertex id outside 0..n-1, or an edge that an
    earlier line lists, in either orientation, raises
    ValueError("path:line: ...").  The last two are found by a rescan that
    runs only when the graph disagrees with the lines.
    """
    n = None
    edges = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: line is not UTF-8") from None
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if not body.startswith("n="):
                    continue
                try:
                    count = int(body[2:])
                    if count < 0:
                        raise ValueError
                except ValueError:
                    raise _bad_line(path, lineno, line, n) from None
                if n is None:
                    n, n_line = count, lineno
                elif count != n:
                    raise ValueError(f"{path}:{lineno}: '# n={count}' contradicts "
                                     f"'# n={n}' on line {n_line}")
                continue
            try:
                u, v = line.split()
                u, v = int(u), int(v)
                if u == v or u < 0 or v < 0:
                    raise ValueError
            except ValueError:
                raise _bad_line(path, lineno, line, n) from None
            edges.append((u, v))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    try:
        g = LabeledGraph.from_edges(n, edges)
        if g.edge_count() == len(edges):
            return g
    except ValueError:              # an id >= n
        pass
    # an id >= n or a repeated edge: rescan for the first line at fault
    with open(path, "rb") as fh:
        stripped = (raw.decode().strip() for raw in fh)
        linenos = [i for i, line in enumerate(stripped, 1)
                   if line and not line.startswith("#")]
    first = {}
    for (u, v), lineno in zip(edges, linenos):
        if max(u, v) >= n:
            raise _bad_line(path, lineno, f"{u} {v}", n)
        seen = first.setdefault((min(u, v), max(u, v)), lineno)
        if seen != lineno:
            raise ValueError(f"{path}:{lineno}: edge '{u} {v}' repeats line {seen}")
