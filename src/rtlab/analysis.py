"""Finite graph analytics shared by the sphere constructions.

Exact maximum-clique search (branch and bound with greedy colouring bounds),
p-independence estimation, global density statistics, a complete-join
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
    """Simple undirected graph on vertices 0..n-1, one bitset row per vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges) -> "LabeledGraph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def from_adjacency(cls, matrix) -> "LabeledGraph":
        m = np.asarray(matrix, dtype=bool)
        if m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(m != m.T) or np.any(np.diag(m)):
            raise ValueError("adjacency must be symmetric with empty diagonal")
        adj = _unpack_rows(np.packbits(m, axis=1, bitorder="little"))
        return cls(m.shape[0], adj)

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
        """The subgraph induced on vertices, renumbered 0.. in the given order."""
        vs = list(vertices)
        if any(not 0 <= v < self.n for v in vs):
            raise ValueError("subgraph vertex out of range")
        rows = _induced_rows(_pack_rows(self.adj), vs)
        return LabeledGraph(len(vs), _unpack_rows(rows))


def _pack_rows(adj: list[int]) -> np.ndarray:
    """The n bitset rows of a graph as an n x 8 ceil(n / 64) uint8 array, bit
    w of row v at byte w // 8, bit w % 8: whole uint64 words per row."""
    n = len(adj)
    width = 8 * ((n + 63) // 64)
    packed = np.empty((n, width), dtype=np.uint8)
    for v, row in enumerate(adj):
        packed[v] = np.frombuffer(row.to_bytes(width, "little"), dtype=np.uint8)
    return packed


def _unpack_rows(rows: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _induced_rows(packed: np.ndarray, vs) -> np.ndarray:
    """Packed rows of the subgraph induced on vs, in that order: bit j of row
    i is set when vs[i] and vs[j] are adjacent."""
    vs = np.asarray(vs, dtype=np.intp)
    n, m = len(packed), len(vs)
    out = np.zeros((m, 8 * ((m + 63) // 64)), dtype=np.uint8)
    if m == 0:
        return out
    # rows are unpacked in blocks of at most 64 KiB, so peak memory stays
    # near the packed arrays' n^2 / 8 bytes
    block = max(1, (1 << 16) // n)
    for lo in range(0, m, block):
        bits = np.unpackbits(packed[vs[lo:lo + block]], axis=1, count=n,
                             bitorder="little")[:, vs]
        out[lo:lo + block, :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out


# ---------------------------------------------------------------------------
# exact max clique
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueCertificate:
    size: int
    witness: tuple
    exhaustive: bool
    upper_bound: int | None = None


def _degeneracy_order(packed: np.ndarray) -> list[int]:
    """Repeatedly remove the vertex of least remaining degree, the lowest id
    among ties: argmin returns the first minimum, and a removed vertex's key
    stays above n - 1 however many of its neighbours leave after it."""
    n = len(packed)
    key = np.bitwise_count(packed.view(np.uint64)).sum(axis=1, dtype=np.int64)
    order = []
    for _ in range(n):
        v = int(key.argmin())
        order.append(v)
        key[v] = 2 * n
        key -= np.unpackbits(packed[v], count=n, bitorder="little")
    return order


def _colour_bound(adj: list[int], order) -> int:
    """Colours used by first-fit colouring in reverse order ("smallest-last"
    when order is a degeneracy order, Matula & Beck 1983): each vertex takes
    the first colour class holding none of its neighbours.  The classes are
    independent sets, so the count is an upper bound on the clique number."""
    classes: list[int] = []
    for v in reversed(order):
        row = adj[v]
        for c, members in enumerate(classes):
            if not row & members:
                classes[c] = members | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _greedy_clique(words: np.ndarray, bound: int) -> list[int]:
    """From each start, add the candidate with the most candidates among its
    neighbours, the lowest id among ties (argmax returns the first maximum);
    keep the first clique that no later start beats strictly.  bound is an
    upper bound on the clique number: a clique that reaches it cannot be
    beaten strictly, so the starts stop there with the same clique."""
    n = len(words)

    def candidates(cand):
        return np.flatnonzero(np.unpackbits(cand.view(np.uint8), count=n,
                                            bitorder="little"))

    best: list[int] = []
    for start in range(n):
        clique = [start]
        cand = words[start]
        ids = candidates(cand)
        while len(ids):
            within = words[ids] & cand
            i = np.bitwise_count(within).sum(axis=1).argmax()
            clique.append(int(ids[i]))
            cand = within[i]
            ids = candidates(cand)
        if len(clique) > len(best):
            best = clique
            if len(best) >= bound:
                break
    return best


def max_clique(g: LabeledGraph, cutoff: int | None = None) -> CliqueCertificate:
    """Exact maximum clique via branch and bound with greedy-colouring bounds.

    Without a cutoff the certificate is exhaustive (size equals the clique
    number).  With cutoff c the search certifies either a clique of size
    c + 1 (witness returned) or that the clique number is at most c.

    The set-up runs in numpy on rows packed into uint64 words: the degeneracy
    order takes the least remaining degree with argmin (lowest id among
    ties), the relabel permutes packed rows, and the greedy seed scores each
    candidate by the popcount of its row within the candidates, taking the
    lowest id among ties and the first clique that no later start beats.
    The branch and bound then works on Python-int bitsets.

    A first-fit colouring in reverse degeneracy order (smallest-last) bounds
    the clique number from above.  The greedy seed stops at the first start
    whose clique reaches that bound, and the branch and bound is skipped when
    the seed reaches it, with or without a cutoff.  Neither changes the
    certificate: no later start and no branch can beat such a clique
    strictly, and both replace their best clique only on a strict
    improvement.  A seed below the bound always runs the branch and bound,
    which, under a cutoff, may still raise the size up to the cutoff.
    """
    if g.n == 0:
        return CliqueCertificate(0, (), True, 0)
    if cutoff is None and g.n > MAX_EXACT_CLIQUE_VERTICES:
        raise ResourceLimit(f"exact clique search capped at {MAX_EXACT_CLIQUE_VERTICES} vertices")

    # degeneracy order improves both colouring and branching
    packed = _pack_rows(g.adj)
    order = _degeneracy_order(packed)
    bound = _colour_bound(g.adj, order)
    packed = _induced_rows(packed, order)
    greedy = _greedy_clique(packed.view(np.uint64), bound)
    adj = _unpack_rows(packed)
    del packed                  # the search needs only the Python-int rows
    best_size = len(greedy)
    best_witness = list(greedy)

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
        nonlocal best_size, best_witness
        order_out, bounds = color_sort(P)
        for i in range(len(order_out) - 1, -1, -1):
            if cutoff is not None and best_size > cutoff:
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
            stack_R.pop()
            P &= ~(1 << v)

    if best_size < bound:
        expand((1 << g.n) - 1)

    witness = tuple(sorted(order[i] for i in best_witness))
    if cutoff is None:
        return CliqueCertificate(best_size, witness, True, best_size)
    if best_size > cutoff:
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

    When the smallest-last colouring bound on the clique number (see
    max_clique) is below p, the graph is K_p-free, so every vertex set is
    K_p-free and (n, n, n <= exact_limit) is returned at once: the
    exhaustive search, the greedy (which then keeps every vertex) and the
    packing (which then finds no K_p) all give n.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    adj = g.adj
    if _colour_bound(adj, _degeneracy_order(_pack_rows(adj))) < p:
        return g.n, g.n, g.n <= exact_limit
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
    global_density: float
    edge_count: int


def density_report(g: LabeledGraph) -> DensityReport:
    """Edge count and the fraction of vertex pairs that are edges."""
    m = g.edge_count()
    dens = 0.0 if g.n < 2 else m / (g.n * (g.n - 1) / 2)
    return DensityReport(dens, m)


def complete_join(graphs) -> LabeledGraph:
    """Disjoint union plus all cross edges between distinct inputs."""
    graphs = list(graphs)
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    adj = [0] * total
    full = (1 << total) - 1
    for gi, g in enumerate(graphs):
        off = offsets[gi]
        block = ((1 << g.n) - 1) << off
        for v in range(g.n):
            row = (full & ~block) | (g.adj[v] << off)
            adj[off + v] = row
    return LabeledGraph(total, adj)


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
