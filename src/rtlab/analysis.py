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
    zero.  The rows are never modified after construction, so the
    degeneracy order is computed once, when first asked for."""

    __slots__ = ("n", "rows", "_order")

    def __init__(self, n: int, rows: np.ndarray):
        self.n = n
        self.rows = rows
        self._order = None

    def _degeneracy_order(self) -> list[int]:
        """_degeneracy_order(self.rows), computed on the first call."""
        if self._order is None:
            self._order = _degeneracy_order(self.rows)
        return self._order

    @classmethod
    def from_adjacency(cls, matrix) -> "LabeledGraph":
        m = np.asarray(matrix, dtype=bool)
        if m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(m != m.T) or np.any(np.diag(m)):
            raise ValueError("adjacency must be symmetric with empty diagonal")
        n = m.shape[0]
        rows = _zero_rows(n)
        rows[:, :(n + 7) // 8] = np.packbits(m, axis=1, bitorder="little")
        return cls(n, rows)

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.rows.view(np.uint64)).sum(dtype=np.int64)) // 2

    def edges(self):
        """The edges (u, v), u < v, in ascending order, as k x 2 int64 arrays
        of a block of rows' edges each.  A block unpacks at most 64 KiB of
        rows and, at the mean degree, 2^13 bits, so the per-edge arrays of
        a dense graph stay small; it clears the diagonal and the entries
        left of it with np.triu, and finds the rest with flatnonzero."""
        n = self.n
        degree = 2 * self.edge_count() // max(n, 1)
        block = max(1, min((1 << 16) // max(n, 1), (1 << 13) // max(degree, 1)))
        for lo in range(0, n, block):
            bits = np.triu(np.unpackbits(self.rows[lo:lo + block], axis=1, count=n,
                                         bitorder="little"), lo + 1)
            u, v = np.divmod(np.flatnonzero(bits), n)
            yield np.stack((u + lo, v), axis=1)


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
    # near the packed arrays' n^2 / 8 bytes
    block = max(1, (1 << 16) // max(n, 1))
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

    The set-up runs in numpy on the graph's packed rows: the degeneracy order
    takes the least remaining degree with argmin (lowest id among ties), the
    relabel permutes packed rows, and the greedy seed scores each candidate
    by the popcount of its row within the candidates, taking the lowest id
    among ties and the first clique that no later start beats.  The colour
    bound and the branch and bound run on Python-int bitsets unpacked from
    the relabelled rows.

    A first-fit colouring in reverse degeneracy order (smallest-last), that
    is of the relabelled vertices n-1..0, bounds the clique number from
    above.  The greedy seed stops at the first start whose clique reaches
    that bound, and the branch and bound is skipped when the seed reaches
    it, with or without a cutoff.  Neither changes the certificate: no later
    start and no branch can beat such a clique strictly, and both replace
    their best clique only on a strict improvement.  A seed below the bound
    always runs the branch and bound, which, under a cutoff, may still raise
    the size up to the cutoff.
    """
    if g.n == 0:
        return CliqueCertificate(0, (), True, 0)
    if cutoff is None and g.n > MAX_EXACT_CLIQUE_VERTICES:
        raise ResourceLimit(f"exact clique search capped at {MAX_EXACT_CLIQUE_VERTICES} vertices")

    # degeneracy order improves both colouring and branching
    order = g._degeneracy_order()
    packed = _induced_rows(g.rows, order)
    adj = _unpack_rows(packed)
    bound = _colour_bound(adj, range(g.n))
    greedy = _greedy_clique(packed.view(np.uint64), bound)
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
    K_p packing upper bound are reported.  All three search Python-int
    bitsets unpacked from the graph's rows.

    When the smallest-last colouring bound on the clique number (see
    max_clique) is below p, the graph is K_p-free, so every vertex set is
    K_p-free and (n, n, n <= exact_limit) is returned at once: the
    exhaustive search, the greedy (which then keeps every vertex) and the
    packing (which then finds no K_p) all give n.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    adj = _unpack_rows(g.rows)
    if _colour_bound(adj, g._degeneracy_order()) < p:
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
    comment, then `# n=...`, then `# <classes>` when given.

    The edge lines are formatted in numpy, one block of g.edges() at a
    time: each line is laid out as u's and v's decimal text, taken from a
    table of every id's text padded to one width with NUL bytes, and the
    NUL bytes are then dropped."""
    width = len(str(max(g.n - 1, 0)))
    text = np.arange(g.n).astype(f"S{width}").view(np.uint8).reshape(g.n, width)
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"# n={g.n}\n")
        if classes is not None:
            fh.write(f"# {classes}\n")
        for block in g.edges():
            lines = np.empty((len(block), 2 * width + 2), dtype=np.uint8)
            lines[:, :width] = text[block[:, 0]]
            lines[:, width] = ord(" ")
            lines[:, width + 1:-1] = text[block[:, 1]]
            lines[:, -1] = ord("\n")
            fh.write(lines[lines != 0].tobytes().decode())


def _bad_line(path, lineno: int, line: str, n):
    bound = "" if n is None else f" below n={n}"
    return ValueError(f"{path}:{lineno}: bad line {line!r}; expected '# n=<count>' "
                      f"or 'u v' with distinct vertex ids{bound}")


def _plain_lines(a: np.ndarray):
    """Split a block of bytes that ends at a newline or at the end of the file
    into lines, and parse its plain lines: 1-18 ASCII digits, one space, 1-18
    ASCII digits.  Returns each line's start and stop (the offset of its
    newline, or the block's end), the indexes of the plain lines, and their
    (u, v) as an m x 2 int64 array; 18 digits stay below 2^63."""
    nd = np.flatnonzero(a - 48 > 9)          # non-digits (uint8 arithmetic wraps)
    cut = np.flatnonzero(a[nd] == 10)        # the newlines' places in nd
    if a[-1] != 10:                          # the last line ends the file
        nd = np.append(nd, len(a))
        cut = np.append(cut, len(nd) - 1)
    stops = nd[cut]
    starts = np.concatenate(([0], stops[:-1] + 1))
    first = np.concatenate(([0], cut[:-1] + 1))
    # a plain line's only non-digits are one space and its end
    plain = np.flatnonzero(cut - first == 1)
    sep = nd[first[plain]]
    width = np.stack((sep - starts[plain], stops[plain] - sep - 1))
    ok = (a[sep] == 32) & ((width >= 1) & (width <= 18)).all(axis=0)
    plain, sep, width = plain[ok], sep[ok], width[:, ok]
    at = np.stack((starts[plain], sep + 1))     # where each line's u and v begin
    ids = np.zeros(at.shape, dtype=np.int64)
    for j in range(int(width.max(initial=0))):
        digit = a[np.minimum(at + j, len(a) - 1)] - 48
        ids = np.where(width > j, ids * 10 + digit, ids)
    return starts, stops, plain, ids.T


def read_edge_list(path):
    """Read the `u v` edge format; `# n=...` comments pin the vertex count.

    The file is read once and parsed in blocks of about _READ_BLOCK bytes,
    each ending at a newline.  Plain lines (1-18 ASCII digits, one space,
    1-18 ASCII digits) are found and parsed in numpy; every other line --
    comments, `# n=` lines, blank lines, CRLF ends, tabs, signs, longer
    ids, non-UTF-8 bytes -- is decoded and parsed on its own, as text.
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
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _zero_rows(0)            # None once the rows would pass the gate
    top = 0                         # 1 + the largest id seen
    k = 0                           # edge lines read
    n = n_line = None
    base = lo = 0                   # lines and bytes before the block
    while lo < len(data):
        hi = len(data)
        if hi - lo > _READ_BLOCK:
            hi = (data.rfind(b"\n", lo, lo + _READ_BLOCK) + 1
                  or data.find(b"\n", lo + _READ_BLOCK) + 1 or hi)
        starts, stops, plain, uv = _plain_lines(np.frombuffer(data, np.uint8, hi - lo, lo))
        loops = plain[uv[:, 0] == uv[:, 1]]
        end = int(loops[0]) if len(loops) else len(starts)   # lines checked here
        irregular = stops[:end] > starts[:end]  # empty lines are skipped
        irregular[plain[plain < end]] = False
        extra = []                  # edges of the irregular lines
        for i in np.flatnonzero(irregular).tolist():
            lineno = base + i + 1
            try:
                line = data[lo + starts[i]:lo + stops[i]].decode().strip()
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
                if u == v or not (0 <= u < 2 ** 63 and 0 <= v < 2 ** 63):  # int64 ids
                    raise ValueError
            except ValueError:
                raise _bad_line(path, lineno, line, n) from None
            extra.append((u, v))
        if len(loops):
            line = data[lo + starts[end]:lo + stops[end]].decode()
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
        lo = hi
    del data                        # freed before the edge count
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
