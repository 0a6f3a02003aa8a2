"""The edge-list reader, writer and edge scatter against the code each
replaced.

read_edge_list parses plain `u v` lines in numpy blocks and every other line
on its own; reference_read_edge_list is the earlier parser, one line at a
time in Python.  For every file both must give the same n and rows, or raise
the same exception with the same message.  write_edge_list formats its lines
in numpy, and the scatter that read_edge_list and the tests' from_edges
share sets bits in blocks of edges; their references format with % and
set every bit with one np.bitwise_or.at.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import from_edges
from unittest import mock

from rtlab import analysis
from rtlab import sphere as S
from rtlab.analysis import LabeledGraph, read_edge_list, write_edge_list
from rtlab.cbe import CbeParams, build_cbe


# ---------------------------------------------------------------------------
# oracle: the per-line parser, as it was
# ---------------------------------------------------------------------------

def _bad_line(path, lineno: int, line: str, n):
    bound = "" if n is None else f" below n={n}"
    return ValueError(f"{path}:{lineno}: bad line {line!r}; expected '# n=<count>' "
                      f"or 'u v' with distinct vertex ids{bound}")


def reference_read_edge_list(path):
    """Read the `u v` edge format; `# n=...` comments pin the vertex count.

    A line that is not UTF-8, a malformed line, a `# n=` line that contradicts
    an earlier one, a loop, a vertex id outside 0..n-1, or an edge that an
    earlier line lists, in either orientation, raises
    ValueError("path:line: ...").  The last two are found by a rescan that
    runs only when the graph disagrees with the lines.
    """
    n = None
    ids = []                        # u0, v0, u1, v1, ...
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
                u, v = map(int, line.split())
                if u == v or not (0 <= u < 2 ** 63 and 0 <= v < 2 ** 63):  # int64 ids
                    raise ValueError
            except ValueError:
                raise _bad_line(path, lineno, line, n) from None
            ids += (u, v)
    if n is None:
        n = 1 + max(ids, default=-1)
    ends = np.array(ids, dtype=np.int64).reshape(-1, 2)
    del ids                         # freed before the rows are built
    try:
        g = from_edges(n, ends)
        if g.edge_count() == len(ends):
            return g
    except ValueError:              # an id >= n
        pass
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


def outcome(read, path):
    """("graph", n, rows shape, rows bytes) or ("error", type, message)."""
    try:
        g = read(path)
    except Exception as exc:        # the type is compared too
        return "error", type(exc), str(exc)
    return "graph", g.n, g.rows.shape, g.rows.tobytes()


def assert_same(path, content: bytes, block: int | None = None):
    """Both readers agree on content; returns the reader's outcome."""
    path.write_bytes(content)
    with mock.patch.object(analysis, "_READ_BLOCK", block or analysis._READ_BLOCK):
        got = outcome(read_edge_list, path)
    assert got == outcome(reference_read_edge_list, path)
    return got


# ---------------------------------------------------------------------------
# explicit cases
# ---------------------------------------------------------------------------

CASES = {
    "n-after-edges": b"0 1\n1 2\n# n=5\n",
    "n-after-edges-out-of-range": b"0 1\n1 5\n# n=3\n",
    "n-between-edges": b"0 1\n# n=4\n2 3\n",
    "no-final-newline": b"# n=3\n0 1\n1 2",
    "no-final-newline-loop": b"# n=3\n0 1\n2 2",
    "crlf": b"# n=3\r\n0 1\r\n1 2\r\n",
    "tab": b"0\t1\n1 2\n",
    "comma": b"0 1\n1,2\n",
    "plus-sign": b"+3 4\n0 1\n",
    "minus-sign": b"0 1\n-1 2\n",
    "leading-zeros": b"003 04\n0 00\n",
    "id-18-digits": b"# n=3\n0 000000000000000002\n",
    "id-19-digits": b"# n=3\n0 0000000000000000002\n",
    "id-18-digits-huge": b"1 999999999999999999\n",
    "id-2^63-1": b"1 9223372036854775807\n",
    "id-2^63": b"0 1\n1 9223372036854775808\n",
    "non-utf8-comment": b"# caf\xe9\n0 1\n",
    "non-utf8-edge": b"# n=3\n0 1\n1 \xff2\n",
    "utf8-comment": "# café\n0 1\n".encode(),
    "empty": b"",
    "only-newlines": b"\n\n\n",
    "blank-and-spaces": b"0 1\n\n   \n 1 2 \n",
    "loop-plain": b"# n=4\n0 1\n2 2\n",
    "loop-before-count": b"0 1\n2 2\n# n=4\n",
    "loop-leading-zero": b"0 1\n03 3\n",
    "loop-then-bad-line": b"2 2\n0 x\n",
    "bad-line-then-loop": b"0 x\n2 2\n",
    "count-then-loop": b"# n=4\n# n=5\n3 3\n",
    "repeat": b"# n=3\n0 1\n1 2\n0 1\n",
    "repeat-reversed": b"# n=3\n0 1\n1 2\n1 0\n",
    "one-id": b"0 1\n7\n",
    "three-ids": b"0 1\n0 1 2\n",
    "two-spaces": b"0  1\n",
    "lone-space": b"0 1\n \n",
    "trailing-space": b"0 1 \n1 2\n",
    "carriage-return-only": b"0 1\r1 2\r",
    "bad-count": b"# n=three\n0 1\n",
    "negative-count": b"# n=-1\n",
    "contradicting-count": b"# n=5\n0 1\n# n=2\n",
    "huge-count": b"# n=1000000000000000000000000000000\n0 1\n",
    "underscore-id": b"1_0 2\n",
    "arabic-digits": "٣ 4\n".encode(),
    "comment-only": b"# nothing here\n",
    "huge-id-then-bad-line": b"1 999999999999999999\n0 x\n",
    "huge-id-then-count": b"1 999999999999999999\n# n=5\n",
    "huge-id-then-huge-count": b"1 999999999999999999\n# n=1000000000000000000\n",
}


@pytest.mark.parametrize("content", CASES.values(), ids=CASES.keys())
def test_reader_matches_reference(tmp_path, content):
    assert_same(tmp_path / "g.edges", content)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 12, 64])
def test_block_boundaries(tmp_path, block):
    """Tiny blocks cut runs of plain lines at every place, and lines longer
    than a block make the block reach the next newline."""
    lines = [f"{u} {u + 1}" for u in range(40)]
    body = "\n".join(["# n=60", *lines[:20], "# comment", *lines[20:]]).encode()
    kind = assert_same(tmp_path / "g.edges", body, block)[0]
    assert kind == "graph"
    kind = assert_same(tmp_path / "g.edges", body + b"\n17 17\n0 x\n", block)[0]
    assert kind == "error"
    kind = assert_same(tmp_path / "g.edges", body + b"\n0 x\n17 17\n", block)[0]
    assert kind == "error"


def test_line_numbers_across_default_blocks(tmp_path):
    """Over 2^18 bytes of plain lines (ids padded with zeros to 15 digits),
    so the default block cuts the run; the loop, the repeat and the bad line
    all lie past the first cut."""
    lines = [f"{u:015d} {u + 1:015d}" for u in range(10000)]
    assert len("\n".join(lines)) > 2 ** 18
    for i, line in [(9000, "7 7"), (9500, "10 9"), (8500, "+5 6 7")]:
        body = "\n".join(lines[:i] + [line] + lines[i:]) + "\n"
        got = assert_same(tmp_path / "g.edges", body.encode())
        assert got[0] == "error" and f":{i + 1}: " in got[2]
    assert assert_same(tmp_path / "g.edges", ("\n".join(lines) + "\n").encode())[0] == "graph"


def band_lines(n, reach):
    """Edges (u, u + d), d = 1..reach, in ascending order: ids that grow
    line by line, and about 10 bytes a line."""
    return [f"{u} {u + d}" for u in range(n) for d in range(1, reach + 1) if u + d < n]


BAND = band_lines(1500, 12)
# (lines, the error's fragment or None for a graph)
MULTI_BLOCK = {
    "count-after-edges": (BAND + ["# n=1500"], None),
    "no-count": (BAND, None),
    "out-of-range-then-bad-line": (["# n=1500"] + BAND[:2000] + ["3 1500"] + BAND[2000:6000]
                                   + ["0 x"] + BAND[6000:], ":6003: bad line '0 x'"),
    "repeat-across-blocks": (BAND + [BAND[10]], f":{len(BAND) + 1}: edge '{BAND[10]}' "
                                                "repeats line 11"),
    "reversed-repeat-across-blocks": (BAND + ["2 0"], f":{len(BAND) + 1}: edge '2 0' "
                                                      "repeats line 2"),
}


@pytest.mark.parametrize("block", [64, None], ids=["64-bytes", "default"])
@pytest.mark.parametrize("lines, fault", MULTI_BLOCK.values(), ids=MULTI_BLOCK.keys())
def test_rows_and_first_fault_do_not_follow_the_block_size(tmp_path, lines, fault, block):
    """Files of several default blocks, read in blocks of a few lines and
    in the default ones: the rows, which grow with the ids when no count
    precedes the edges, and the first line at fault match the reference.
    An id out of range only marks the file for the rescan, so a malformed
    line after it is the one named."""
    content = ("\n".join(lines) + "\n").encode()
    assert len(content) > 2 * analysis._READ_BLOCK
    got = assert_same(tmp_path / "g.edges", content, block)
    if fault is None:
        assert got[:2] == ("graph", 1500)
    else:
        assert got[0] == "error" and fault in got[2]


def test_reader_memory_stays_near_the_file_and_rows(tmp_path):
    """The gen-cbe graph at n = 2,500 per class: an 18 MB file and 3.2 MB of
    rows.  Reading it may add 4 MiB to them: less than one 2,500 x 2,500
    bool matrix, and far less than the 30 MB of a whole-file int64 edge
    array."""
    path = tmp_path / "g.edges"
    graph = build_cbe(CbeParams(p=3, ell=1, k=16, n=2500, seed=1)).to_labeled_graph()
    write_edge_list(path, graph)
    tracemalloc.start()
    try:
        g = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.rows, graph.rows)
    assert peak <= path.stat().st_size + g.rows.nbytes + 2 ** 22


# ---------------------------------------------------------------------------
# generated files
# ---------------------------------------------------------------------------

PLAIN = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda e: b"%d %d" % e)
IRREGULAR = st.sampled_from([
    b"", b"   ", b"# a comment", b"#n=13", b"# n=13", b"# n=14", b"# n=x", b"# caf\xe9",
    b"0 1\r", b"2\t3", b"+4 5", b"06 007", b"0000000000000000001 9", b"1 9223372036854775808",
    b"-1 2", b"1 2 3", b"4", b" 5 6", b"5 6 ", b"x y", b"2x3", b"4,5", b"7 \xff8",
    b"8 8\r", b"3  4",
])


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(PLAIN, PLAIN, PLAIN, IRREGULAR), max_size=30),
       final_newline=st.booleans(), block=st.sampled_from([1, 4, 9, 16, 2 ** 18]))
def test_generated_files_match_reference(tmp_path_factory, lines, final_newline, block):
    path = tmp_path_factory.getbasetemp() / "generated.edges"
    content = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    assert_same(path, content, block)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1600])
def test_write_read_round_trip(tmp_path, n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.05, 1)
    g = LabeledGraph.from_adjacency(upper | upper.T)
    path = tmp_path / "g.edges"
    write_edge_list(path, g, comments=["round trip"], classes="classes: 1")
    back = read_edge_list(path)
    assert back.n == n and np.array_equal(back.rows, g.rows)
    assert outcome(reference_read_edge_list, path) == outcome(read_edge_list, path)


# ---------------------------------------------------------------------------
# the writer against the %-formatting one
# ---------------------------------------------------------------------------

def reference_write_edge_list(path, g: LabeledGraph, comments=(), classes=None):
    """Reference: every edge found by argwhere on the whole unpacked upper
    triangle and formatted with %."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(f"# n={g.n}\n")
        if classes is not None:
            fh.write(f"# {classes}\n")
        bits = np.unpackbits(g.rows, axis=1, count=g.n, bitorder="little")
        ends = np.argwhere(np.triu(bits, 1))
        fh.write("%d %d\n" * len(ends) % tuple(ends.ravel().tolist()))


@pytest.mark.parametrize("labels", [{}, {"comments": ["seed 3", "caf\u00e9"],
                                         "classes": "classes: 2 x 5"}],
                         ids=["bare", "labelled"])
@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 100, 101, 1001])
def test_writer_matches_percent_formatting(tmp_path, n, labels):
    """Ids of every width up to 4 digits, 0 to 500 edges a row, and graphs
    whose edges span several of edges()' blocks."""
    rng = S.philox_rng(n, 79)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    if n > 1:
        upper[0, n - 1] = upper[n - 2, n - 1] = True        # the widest ids
    g = LabeledGraph.from_adjacency(upper | upper.T)
    write_edge_list(tmp_path / "new.edges", g, **labels)
    reference_write_edge_list(tmp_path / "ref.edges", g, **labels)
    assert (tmp_path / "new.edges").read_bytes() == (tmp_path / "ref.edges").read_bytes()


# ---------------------------------------------------------------------------
# from_edges against np.bitwise_or.at
# ---------------------------------------------------------------------------

def reference_from_edges(n, edges):
    """Reference: both entries of every edge set with np.bitwise_or.at."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = (ends[:, 0] == ends[:, 1]) | (ends.min(axis=1) < 0) | (ends.max(axis=1) >= n)
    if bad.any():
        u, v = ends[bad.argmax()].tolist()
        raise ValueError("loops are not allowed" if u == v else f"edge ({u},{v}) out of range")
    rows = analysis._zero_rows(n)
    dst = ends[:, ::-1].ravel()
    np.bitwise_or.at(rows, (ends.ravel(), dst >> 3), np.left_shift(1, dst & 7).astype(np.uint8))
    return LabeledGraph(n, rows)


def scatter_outcome(build, n, edges):
    """("graph", rows shape, rows bytes) or ("error", type, message)."""
    try:
        g = build(n, edges)
    except Exception as exc:        # the type is compared too
        return "error", type(exc), str(exc)
    return "graph", g.rows.shape, g.rows.tobytes()


@pytest.mark.parametrize("block", [None, 1, 7, 64, 1000])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 300])
def test_from_edges_matches_bitwise_or_at(n, block, monkeypatch):
    """Random pairs, each third also reversed and each fifth repeated, set
    in scatter blocks of 1, 7, 64, 1,000 and the default number of edges."""
    if block is not None:
        monkeypatch.setattr(analysis, "_SCATTER_BLOCK", block)
    rng = S.philox_rng(n + 1000 * (block or 0), 80)
    ends = rng.integers(0, max(n, 1), size=(3 * n + 5, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    ends = np.concatenate([ends, ends[::3, ::-1], ends[::5]])
    for edges in (ends, ends.tolist(), ends[::-1, ::-1]):
        got = scatter_outcome(from_edges, n, edges)
        assert got == scatter_outcome(reference_from_edges, n, edges)
    assert got[0] == "graph"


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1), (2, 2), (0, 5)]),
    (3, [(0, 1), (0, 5), (2, 2)]),
    (3, [(1, 2), (-1, 0), (1, 1)]),
    (3, [(0, 1), (1, 0), (0, 3)]),
    (3, [(3, 3)]),
    (0, [(0, 1)]),
    (5, [(4, -2**63)]),
    (5, [(2**63 - 1, 0)]),
    (10 ** 30, [(0, 1)]),
    (-1, [(0, 1)]),
    (-1, [(1, 1)]),
    (0, []),
])
def test_from_edges_errors_match_bitwise_or_at(n, edges):
    assert (scatter_outcome(from_edges, n, edges)
            == scatter_outcome(reference_from_edges, n, edges))


def test_from_edges_memory_stays_near_the_rows():
    """At n = 20,000 the packed rows take 50.08 MB and a whole bool matrix
    400 MB.  A few edges may cost the rows plus 8 MiB; the scatter itself
    takes a few dozen bytes an edge."""
    n = 20_000
    edges = [(0, n - 1), (5, 6), (n // 2, n // 2 + 1), (n - 2, 3), (6, 5)]
    tracemalloc.start()
    try:
        g = from_edges(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.rows.nbytes == n * 2504
    assert peak <= g.rows.nbytes + 2 ** 23
    assert g.edge_count() == 4
    assert scatter_outcome(from_edges, n, edges) \
        == scatter_outcome(reference_from_edges, n, edges)
