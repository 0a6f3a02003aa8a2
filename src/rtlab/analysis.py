"""Finite graph analytics shared by the sphere constructions.

Exact maximum-clique search (branch and bound with greedy colouring bounds),
p-independence estimation, global density statistics, and the exact
rational density formulas for the Ramsey-Turan families.  A graph is stored
once, as adjacency rows packed into uint64 words; only the two searches
unpack them into Python-int bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sphere import ResourceLimit

MAX_EXACT_CLIQUE_VERTICES = 5000
MAX_ROW_BYTES = 2 ** 28          # packed rows of up to n = 46,340 vertices
_READ_BLOCK = 2 ** 16            # bytes of an edge list parsed at once
_SCATTER_BLOCK = 2 ** 14         # edges whose bits are set at once
_BITS = np.left_shift(1, np.arange(8)).astype(np.uint8)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class LabeledGraph:
    """Simple undirected graph on vertices 0..n-1.  rows is the n x 8 ceil(n / 64)
    uint8 array in which row v has bit w (byte w // 8, bit w % 8) set when vw
    is an edge: whole uint64 words per row, the diagonal and the bits past n
    zero.  The rows are never modified after construction, so the graph
    keeps one peel of the degeneracy order, advanced on demand: the peel
    (whose int32 keys live in the _degeneracy_order generator), the order
    peeled so far, and each vertex's place in it (n until it is peeled)."""

    __slots__ = ("n", "rows", "_peel", "_order", "_rank")

    def __init__(self, n: int, rows: np.ndarray):
        self.n = n
        self.rows = rows
        self._peel = _degeneracy_order(rows)
        self._order: list[int] = []
        self._rank = np.full(n, n, dtype=np.intp)

    def _peel_one(self) -> int:
        v = next(self._peel)
        self._rank[v] = len(self._order)
        self._order.append(v)
        return v

    def _degeneracy_order(self, count=None) -> list[int]:
        """The degeneracy order peeled so far, peeled until it holds count
        vertices (all by default)."""
        while len(self._order) < (self.n if count is None else count):
            self._peel_one()
        return self._order

    def _ranks(self, vs: np.ndarray) -> np.ndarray:
        """The places of the vertices vs in the degeneracy order, n for one
        not yet peeled; the order is peeled until one of vs has its place."""
        if self._rank[vs].min() == self.n:
            wanted = set(vs.tolist())
            while self._peel_one() not in wanted:
                pass
        return self._rank[vs]

    @classmethod
    def from_adjacency(cls, matrix) -> "LabeledGraph":
        """The graph of a symmetric bool matrix with an empty diagonal.  No
        command calls it; it stays because the traced benchmark
        (perfbench/shims.py) wraps it by name."""
        m = np.asarray(matrix, dtype=bool)
        if m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(m != m.T) or np.any(np.diag(m)):
            raise ValueError("adjacency must be symmetric with empty diagonal")
        rows = _zero_rows(len(m))
        _or_block(rows, m, 0)
        return cls(len(m), rows)

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.rows.view(np.uint64)).sum(dtype=np.int64)) // 2

    def edges(self):
        """The edges (u, v), u < v, in ascending order, as k x 2 int64 arrays
        of a block of rows' edges each.  A block unpacks at most 64 KiB of
        rows and, at the mean degree, 2^13 bits, so the per-edge arrays of
        a dense graph stay small.  Rows [lo, hi) unpack only their columns
        from col = (lo + 1) // 8 * 8 on; np.triu clears the diagonal and the
        entries left of it in the band of columns [col, hi), and
        flatnonzero finds the rest."""
        n = self.n
        degree = 2 * self.edge_count() // max(n, 1)
        block = max(1, min((1 << 16) // max(n, 1), (1 << 13) // max(degree, 1)))
        for lo in range(0, n, block):
            hi, col = min(n, lo + block), (lo + 1) // 8 * 8
            bits = np.unpackbits(self.rows[lo:hi, col // 8:], axis=1, count=n - col,
                                 bitorder="little")
            bits[:, :hi - col] = np.triu(bits[:, :hi - col], lo + 1 - col)
            u, v = np.divmod(np.flatnonzero(bits), n - col)
            yield np.stack((u + lo, v + col), axis=1)


def _zero_rows(n: int) -> np.ndarray:
    """Empty packed rows for n vertices, within the MAX_ROW_BYTES gate."""
    width = 8 * ((n + 63) // 64)
    if n * width > MAX_ROW_BYTES:
        raise ResourceLimit(f"the packed rows of n={n} vertices need {n * width} "
                            f"bytes, over the {MAX_ROW_BYTES}-byte cap")
    return np.zeros((n, width), dtype=np.uint8)


def _set_edges(rows: np.ndarray, ends: np.ndarray):
    """Set both bits of each edge of ends, a k x 2 int64 array of ids below
    len(rows), in the packed rows, _SCATTER_BLOCK edges at a time."""
    flat = rows.reshape(-1)
    width = rows.shape[1]
    for lo in range(0, len(ends), _SCATTER_BLOCK):
        block = ends[lo:lo + _SCATTER_BLOCK]
        src, dst = block.ravel(), block[:, ::-1].ravel()    # row src gets bit dst
        np.bitwise_or.at(flat, src * width + (dst >> 3), _BITS[dst & 7])


def _or_block(rows: np.ndarray, bits: np.ndarray, col: int):
    """OR the bool block bits into the packed rows at columns col onwards:
    bit col + j of rows[i] is set when bits[i, j] is.  The block is packed
    once, and its bytes land col % 8 bits up, split over two bytes."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    byte, shift = divmod(col, 8)
    rows[:, byte:byte + packed.shape[1]] |= packed << shift
    if shift:
        carry = packed[:, :rows.shape[1] - byte - 1] >> 8 - shift
        rows[:, byte + 1:byte + 1 + carry.shape[1]] |= carry


def _mirror(rows: np.ndarray):
    """Complete packed rows to the symmetric matrix when every pair i > j
    they hold is also held as j, i: one word of columns [lo, lo + 64) at a
    time, those columns of rows [0, lo + 64), which no earlier word has
    touched, are unpacked, and their transpose is ORed into rows
    [lo, lo + 64)."""
    n = len(rows)
    for lo in range(0, n, 64):
        hi = min(n, lo + 64)
        bits = np.unpackbits(rows[:hi, lo // 8:(hi + 7) // 8], axis=1, count=hi - lo,
                             bitorder="little")
        _or_block(rows[lo:hi], np.ascontiguousarray(bits.T), 0)


def _popcount(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Each row's number of set bits in columns [lo, hi), lo < hi."""
    part = rows[:, lo // 8:(hi + 7) // 8]
    mask = np.full(part.shape[1], 255, dtype=np.uint8)
    mask[0] = 255 << lo % 8 & 255
    mask[-1] &= 255 >> -hi % 8
    return np.bitwise_count(part & mask).sum(axis=1, dtype=np.int64)


def _grown(rows: np.ndarray, n: int):
    """rows widened and extended to the packed rows of n vertices, or None
    past the MAX_ROW_BYTES gate."""
    try:
        out = _zero_rows(n)
    except ResourceLimit:
        return None
    out[:len(rows), :rows.shape[1]] = rows
    return out


def _unpack_rows(rows: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _induced_rows(packed: np.ndarray, vs) -> np.ndarray:
    """Packed rows of the subgraph induced on vs, in that order: bit j of row
    i is set when vs[i] and vs[j] are adjacent."""
    vs = np.asarray(vs, dtype=np.intp)
    n, m = len(packed), len(vs)
    out = _zero_rows(m)
    # rows are unpacked in blocks of at most 64 KiB, so peak memory stays
    # near the packed arrays' n^2 / 8 bytes; take keeps the picked columns
    # C-contiguous, which packbits needs to be fast
    block = max(1, (1 << 16) // max(n, 1))
    for lo in range(0, m, block):
        bits = np.unpackbits(packed[vs[lo:lo + block]], axis=1, count=n,
                             bitorder="little").take(vs, axis=1)
        _or_block(out[lo:lo + block], bits, 0)
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


def _degeneracy_order(packed: np.ndarray):
    """Yield the vertices in degeneracy order (Matula & Beck 1983): repeatedly
    remove the vertex of least remaining degree, the lowest id among ties.
    argmin returns the first minimum, and a removed vertex's key stays above
    n - 1 however many of its neighbours leave after it.  A generator, so a
    caller peels only as many vertices as it asks for."""
    n = len(packed)
    key = np.bitwise_count(packed.view(np.uint64)).sum(axis=1, dtype=np.int32)
    for _ in range(n):
        v = int(key.argmin())
        yield v
        key[v] = 2 * n
        # positional (axis, count, bitorder): keywords cost a third more a call
        key -= np.unpackbits(packed[v], None, n, "little")


def _colour_bound(adj: list[int], vertices) -> int:
    """Colours used by first-fit colouring of vertices in the given order:
    each vertex takes the first colour class holding none of its
    neighbours.  The classes are independent sets, so the count is an upper
    bound on the clique number; in reverse degeneracy order it is the
    smallest-last colouring of Matula & Beck (1983)."""
    classes: list[int] = []
    for v in vertices:
        row = adj[v]
        for c, members in enumerate(classes):
            if not row & members:
                classes[c] = members | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _grow_clique(words: np.ndarray, start: int, ranks=None) -> list[int]:
    """The greedy clique from start: add the candidate with the most
    candidates among its neighbours until none is left.  Ties go to the
    lowest rank, ranks(vs) giving the ranks of the vertices vs; without
    ranks, to the lowest id (argmax returns the first maximum)."""
    n = len(words)
    clique, cand = [start], words[start]
    while len(ids := np.flatnonzero(np.unpackbits(cand.view(np.uint8), None, n, "little"))):
        within = words[ids] & cand
        score = np.bitwise_count(within).sum(axis=1)
        if ranks is None:
            i = score.argmax()
        else:
            tied = np.flatnonzero(score == score.max())
            i = tied[0] if len(tied) == 1 else tied[ranks(ids[tied]).argmin()]
        clique.append(int(ids[i]))
        cand = within[i]
    return clique


def _greedy_clique(words: np.ndarray, bound: int, best: list[int]) -> list[int]:
    """The greedy clique from each start after 0, whose clique is best; keep
    the first clique that no later start beats strictly.  bound is an upper
    bound on the clique number: a clique that reaches it cannot be beaten
    strictly, so the starts stop there with the same clique."""
    for start in range(1, len(words)):
        if len(best) >= bound:
            break
        clique = _grow_clique(words, start)
        if len(clique) > len(best):
            best = clique
    return best


def _colour_sort(adj: list[int], P: int):
    """The vertices of P in greedy colour classes, lowest id first within a
    class, and each one's colour (1, 2, ...)."""
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


def _branch_and_bound(adj: list[int], best: list[int], cutoff) -> list[int]:
    """The first clique larger than best (and, under a cutoff, than the
    cutoff) in search order, or best when there is none.

    Depth first on an explicit stack, so no depth meets Python's recursion
    limit.  Each level tries its colour-sorted vertices from the highest
    colour down and ends at the first whose colour cannot lift R past the
    best size (or the cutoff); R holds one vertex per open level, and saved
    the state of each level below the current one."""
    best_size = len(best)
    R: list[int] = []
    saved = []
    P = (1 << len(adj)) - 1
    vs, colours = _colour_sort(adj, P)
    i = len(vs) - 1
    while True:
        if (i < 0 or (cutoff is not None and best_size > cutoff)
                or len(R) + colours[i] <= max(best_size, cutoff or 0)):
            if not saved:
                return best
            P, vs, colours, i = saved.pop()
        else:
            v = vs[i]
            R.append(v)
            newP = P & adj[v]
            if newP:
                saved.append((P, vs, colours, i))
                P = newP
                vs, colours = _colour_sort(adj, P)
                i = len(vs) - 1
                continue
            if len(R) > best_size:
                best_size = len(R)
                best = list(R)
        P &= ~(1 << R.pop())
        i -= 1


def max_clique(g: LabeledGraph, cutoff: int | None = None) -> CliqueCertificate:
    """Exact maximum clique via branch and bound with greedy-colouring bounds.

    Without a cutoff the certificate is exhaustive (size equals the clique
    number).  With cutoff c the search certifies either a clique of size
    c + 1 (witness returned) or that the clique number is at most c.

    The search is a greedy seed, then the branch and bound, on the graph
    relabelled by its degeneracy order: the seed grows a clique from each
    start (see _grow_clique) and keeps the first that no later start beats
    strictly.  Both stop at a clique that reaches an upper bound on the
    clique number, which changes no certificate, whatever the bound: both
    replace their best only on a strict improvement.

    The set-up runs only as far as the answer needs.  Start 0 is the first
    vertex of the degeneracy order.  Its clique grows on the graph's own
    rows, ties going to the lowest rank in the order, which is peeled only
    until a tied candidate has its place.  When that clique reaches b0,
    first-fit colouring in id order, it is the certificate.  Otherwise the
    peel finishes, the rows are relabelled, the bound becomes the smaller of
    b0 and the smallest-last colouring (first-fit in reverse degeneracy
    order), and the seed goes on from start 1, ahead of the branch and bound
    on Python-int bitsets of the relabelled rows.
    """
    if g.n == 0:
        return CliqueCertificate(0, (), True, 0)
    if cutoff is None and g.n > MAX_EXACT_CLIQUE_VERTICES:
        raise ResourceLimit(f"exact clique search capped at {MAX_EXACT_CLIQUE_VERTICES} vertices")

    clique = _grow_clique(g.rows.view(np.uint64), g._degeneracy_order(1)[0], g._ranks)
    adj = _unpack_rows(g.rows)
    b0 = _colour_bound(adj, range(g.n))
    if len(clique) < b0:
        order = g._degeneracy_order()
        bound = min(b0, _colour_bound(adj, reversed(order)))
        del adj
        packed = _induced_rows(g.rows, order)
        best = _greedy_clique(packed.view(np.uint64), bound, g._rank[clique].tolist())
        if len(best) < bound:
            adj = _unpack_rows(packed)
            del packed          # the search needs only the Python-int rows
            best = _branch_and_bound(adj, best, cutoff)
        clique = [order[i] for i in best]

    witness = tuple(sorted(clique))
    size = len(witness)
    if cutoff is None:
        return CliqueCertificate(size, witness, True, size)
    if size > cutoff:
        return CliqueCertificate(size, witness, False, None)
    return CliqueCertificate(size, witness, False, cutoff)


# ---------------------------------------------------------------------------
# p-independence
# ---------------------------------------------------------------------------

def _find_clique(adj: list[int], mask: int, t: int):
    """A clique of size t inside mask, as a list of vertices, or None.

    Vertices are tried lowest first and each branch looks only at later
    vertices, so the first clique in that order is returned; a branch with
    fewer than t vertices left is cut, which never cuts a success.  The
    search keeps its own stack, so no t meets Python's recursion limit.
    """
    if t <= 0:
        return []
    taken, rests = [], []       # per open level below: its vertex, its untried rest
    rest = mask                 # the current level's untried candidates
    while True:
        if rest.bit_count() < t - len(taken):   # too few left: back up a level
            if not taken:
                return None
            taken.pop()
            rest = rests.pop()
            continue
        v = (rest & -rest).bit_length() - 1
        if len(taken) == t - 1:
            return [*taken, v]
        rest &= rest - 1
        taken.append(v)
        rests.append(rest)
        rest = adj[v] & rest


def p_independence(g: LabeledGraph, p: int, exact_limit: int = 40):
    """Largest vertex set inducing a K_p-free subgraph.

    Returns (lower_bound, upper_bound, exact).  Exhaustive search is used up
    to exact_limit vertices; beyond that a greedy lower bound and a disjoint
    K_p packing upper bound are reported.  All three search Python-int
    bitsets unpacked from the graph's rows.

    When a colouring bound on the clique number is below p, the graph is
    K_p-free, so every vertex set is K_p-free and (n, n, n <= exact_limit)
    is returned at once: the exhaustive search, the greedy (which then
    keeps every vertex) and the packing (which then finds no K_p) all give
    n.  First-fit colouring in id order is tried first, as it needs no
    order; then the smallest-last colouring (see max_clique).
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    adj = _unpack_rows(g.rows)
    if (_colour_bound(adj, range(g.n)) < p
            or _colour_bound(adj, reversed(g._degeneracy_order())) < p):
        return g.n, g.n, g.n <= exact_limit
    if g.n <= exact_limit:
        order = sorted(range(g.n), key=lambda v: -adj[v].bit_count())
        best = 0
        # depth first over (index, chosen set, its size): order[idx] is taken
        # when it closes no K_p, and that branch is searched before the one
        # without it; a branch that cannot beat best is cut
        stack = [(0, 0, 0)]
        while stack:
            idx, chosen, count = stack.pop()
            if count + (g.n - idx) <= best:
                continue
            if idx == g.n:
                best = max(best, count)
                continue
            v = order[idx]
            stack.append((idx + 1, chosen, count))
            if _find_clique(adj, adj[v] & chosen, p - 1) is None:
                stack.append((idx + 1, chosen | (1 << v), count + 1))
        return best, best, True

    # greedy lower bound
    chosen = 0
    count = 0
    for v in sorted(range(g.n), key=lambda u: adj[u].bit_count()):
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
# density statistics
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
    """Theorem 13's multipartite density against the conjecture, exactly.

    ell, p, q: the construction's parameters (q even, ell >= p (q - 1)).
    p_star, q_star: the regime they reach, 2^ell-independence and no
    K_{q_star}, with q_star = 2^ell + 2^p + q - 1.
    lower_bound: the construction's density (1/2^(ell-p)) (1 - 1/q).
    rho_star_value: rho_star(p_star, q_star), the conjectured density.
    exceeds_conjecture: lower_bound > rho_star_value, compared exactly.
    strict_expected: what the closed form lower_bound - rho_star_value =
    (q - 2)(2^p - q) / (q 2^(ell+1)) predicts for exceeds_conjecture: true
    exactly when q > 2 and 2^p > q.
    equality_window: theorem 15's window t (t - 2) <= s <= t^2 at s = 2^p,
    t = q.  It does not mean equality: at (ell, p, q) = (9, 3, 4) it holds
    and the bound is strict.
    """

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
        strict_expected=q > 2 and 2 ** p > q,
        equality_window=q * (q - 2) <= 2 ** p <= q * q,
    )


# ---------------------------------------------------------------------------
# edge-list interchange format
# ---------------------------------------------------------------------------

def write_edge_list(path, g: LabeledGraph, comments=(), classes=None):
    """Write the `u v` edge format (u < v, ascending): one `# ` line per
    comment, then `# n=...`, then `# <classes>` when given.

    The edge lines are formatted in numpy, one block of g.edges() at a
    time: each line is u's text and a space, then v's text and a newline,
    each taken whole from a table of every id's text (NUL-padded to one
    width, then its separator), and the NUL bytes are then dropped.  The
    file is written as bytes; the comment lines are UTF-8."""
    width = len(str(max(g.n - 1, 0)))
    text = np.zeros((g.n, 2, width + 1), dtype=np.uint8)
    text[:, :, :width] = np.arange(g.n).astype(f"S{width}").view(np.uint8).reshape(-1, 1, width)
    text[:, :, width] = (ord(" "), ord("\n"))
    u_text, v_text = text.view(f"V{width + 1}").reshape(g.n, 2).T
    header = [*comments, f"n={g.n}", *([] if classes is None else [classes])]
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        for block in g.edges():
            lines = np.stack((u_text[block[:, 0]], v_text[block[:, 1]]), axis=1).view(np.uint8)
            fh.write(lines[lines != 0].tobytes())


def _bad_line(path, lineno: int, line: str, n):
    bound = "" if n is None else f" below n={n}"
    return ValueError(f"{path}:{lineno}: bad line {line!r}; expected '# n=<count>' "
                      f"or 'u v' with distinct vertex ids{bound}")


def _plain_lines(data: bytes):
    """Split a block of bytes that ends at a newline or at the end of the file
    into lines, and parse its plain lines: 1-18 ASCII digits, one space, 1-18
    ASCII digits.  Returns each line's start and stop (the offset of its
    newline, or the block's end), the indexes of the plain lines, and their
    (u, v) as an m x 2 int64 array; 18 digits stay below 2^63.  A block of
    plain lines only, whose non-digits alternate space and newline, is
    parsed by np.fromstring in one call."""
    a = np.frombuffer(data, np.uint8)
    nd = np.flatnonzero(a - 48 > 9)          # non-digits (uint8 arithmetic wraps)
    kind = a[nd]
    if a[-1] != 10:                          # the last line ends the file
        nd = np.append(nd, len(a))
        kind = np.append(kind, 10)
    digits = np.diff(nd, prepend=-1) - 1     # the digits before each non-digit
    fits = (digits >= 1) & (digits <= 18)
    if (len(nd) % 2 == 0 and (kind[::2] == 32).all() and (kind[1::2] == 10).all()
            and fits.all()):
        stops = nd[1::2]
        starts = np.concatenate(([0], stops[:-1] + 1))
        ids = np.fromstring(data, np.int64, sep=" ").reshape(-1, 2)
        return starts, stops, np.arange(len(stops)), ids
    cut = np.flatnonzero(kind == 10)         # the newlines' places in nd
    stops = nd[cut]
    starts = np.concatenate(([0], stops[:-1] + 1))
    first = np.concatenate(([0], cut[:-1] + 1))
    # a plain line's only non-digits are one space and its end
    plain = np.flatnonzero(cut - first == 1)
    k = first[plain]                         # the spaces' places in nd
    ok = (kind[k] == 32) & fits[k] & fits[k + 1]
    plain, k = plain[ok], k[ok]
    width = np.stack((digits[k], digits[k + 1]))
    at = np.stack((starts[plain], nd[k] + 1))   # where each line's u and v begin
    ids = np.zeros(at.shape, dtype=np.int64)
    for j in range(int(width.max(initial=0))):
        digit = a[np.minimum(at + j, len(a) - 1)] - 48
        ids = np.where(width > j, ids * 10 + digit, ids)
    return starts, stops, plain, ids.T


def read_edge_list(path):
    """Read the `u v` edge format; `# n=...` comments pin the vertex count.

    The file is read once, _READ_BLOCK bytes at a time, and parsed in
    blocks that end at a newline: the unfinished last line of each read is
    carried over to the next, and a line longer than a read is read to its
    end, so no block splits a line.  Plain lines (1-18 ASCII digits, one
    space, 1-18 ASCII digits) are found and parsed in numpy, a block of
    nothing else in one np.fromstring call; every other
    line -- comments, `# n=` lines, blank lines, CRLF ends, tabs, signs,
    longer ids, non-UTF-8 bytes -- is decoded and parsed on its own, as text.
    Each block's edges are then set in the packed rows, which cover n
    vertices once a `# n=` line has given n, and the largest id seen so far
    before that.

    The first line at fault in file order raises ValueError("path:line: ..."):
    a line that is not UTF-8, a malformed line, a `# n=` line that
    contradicts an earlier one, or a loop.  A vertex id outside 0..n-1, or
    an edge that an earlier line lists, in either orientation, is found by a
    rescan that runs only when the graph disagrees with the lines, and
    raises the same way.  Rows past the MAX_ROW_BYTES gate raise
    ResourceLimit once the file has parsed.
    """
    rows = _zero_rows(0)            # None once the rows would pass the gate
    top = 0                         # 1 + the largest id seen
    k = 0                           # edge lines read
    n = n_line = None
    base = 0                        # lines before the block
    tail = b""                      # the unfinished last line of the last read
    with open(path, "rb") as fh:
        while data := tail + fh.read(_READ_BLOCK):
            cut = data.rfind(b"\n") + 1
            if not cut:             # one line longer than a read, or the file's last
                data += fh.readline()
                cut = len(data)
            data, tail = data[:cut], data[cut:]
            starts, stops, plain, uv = _plain_lines(data)
            loops = plain[uv[:, 0] == uv[:, 1]]
            end = int(loops[0]) if len(loops) else len(starts)   # lines checked here
            irregular = stops[:end] > starts[:end]  # empty lines are skipped
            irregular[plain[plain < end]] = False
            extra = []              # edges of the irregular lines
            for i in np.flatnonzero(irregular).tolist():
                lineno = base + i + 1
                try:
                    line = data[starts[i]:stops[i]].decode().strip()
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
                    u, v = map(int, line.split())
                    # ids must fit int64
                    if u == v or not (0 <= u < 2 ** 63 and 0 <= v < 2 ** 63):
                        raise ValueError
                except ValueError:
                    raise _bad_line(path, lineno, line, n) from None
                extra.append((u, v))
            if len(loops):
                line = data[starts[end]:stops[end]].decode()
                raise _bad_line(path, base + end + 1, line, n)
            if extra:
                uv = np.concatenate((uv, np.array(extra, dtype=np.int64)))
            k += len(uv)
            top = max(top, int(uv.max(initial=-1)) + 1)
            size = top if n is None else n
            if rows is not None and size > len(rows):
                rows = _grown(rows, size)
            if rows is not None and top <= size:    # else the gate or the rescan raises
                _set_edges(rows, uv)
            base += len(starts)
    if n is None:
        n = top
    if top <= n:                    # then the last block left n rows
        if rows is None:
            _zero_rows(n)           # raises ResourceLimit
        g = LabeledGraph(n, rows)
        if g.edge_count() == k:
            return g
    # an id >= n or a repeated edge: rescan for the first line at fault
    first = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.decode().strip()
            if not line or line.startswith("#"):
                continue
            u, v = map(int, line.split())
            if max(u, v) >= n:
                raise _bad_line(path, lineno, f"{u} {v}", n)
            seen = first.setdefault((min(u, v), max(u, v)), lineno)
            if seen != lineno:
                raise ValueError(f"{path}:{lineno}: edge '{u} {v}' repeats line {seen}")
