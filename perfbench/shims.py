"""Timing shims for the traced benchmark run.

install() wraps public functions of rtlab's sphere, cbe, mbe, analysis,
weighted and cli modules, from outside: the program itself is not changed.
Each call records a span (id, parent id, name, start, end) in memory, and
some calls add counts read from their arguments and return values.
layer_metrics() turns one process's spans and counts into the per-layer
metrics that BENCHMARK.json names.  A metric ending in _s is self time (the
span's duration minus its child spans), except cli.<command>_s, which is the
whole command.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Recorder:
    """Nested spans and named counts of one process."""

    def __init__(self):
        self.spans = []              # (id, parent id, name, start ns, end ns)
        self.counts = defaultdict(int)
        self._stack = [0]            # 0 is the root: no enclosing span
        self._next_id = 1

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return shim

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- counts read from arguments and return values ---------------------------

def _count_outputs(counts, args, kwargs, rc):
    """Bytes of the files a command wrote, and edge lines of its .edges."""
    out = getattr(args[0], "out", None)
    if not out:
        return
    for path in (out, out + ".edges", out + ".json", out + ".csv", out + ".hyper"):
        if not os.path.isfile(path):
            continue
        counts["cli.bytes_out"] += os.path.getsize(path)
        if path.endswith(".edges"):
            with open(path, "rb") as fh:
                counts["cli.edge_lines_out"] += sum(
                    1 for line in fh if not line.startswith(b"#"))


def _count_suite(counts, args, kwargs, report):
    c = report["counters"]
    counts["weighted.graphs_checked"] += c.get("checked", 0)
    counts["weighted.graphs_skipped"] += c.get("skipped", 0)
    counts["weighted.membership_graphs"] += c.get("membership_graphs", 0)


def _count_points(counts, args, kwargs, points):
    counts["sphere.points_sampled"] += len(points)


def _count_cbe(counts, args, kwargs, graph):
    a, n = graph.adjacency, graph.n
    counts["cbe.vertices"] += a.shape[0]
    counts["cbe.cross_edges"] += int(a[:n, n:].sum())
    counts["cbe.inner_edges"] += (int(a[:n, :n].sum()) + int(a[n:, n:].sum())) // 2


def _count_clique(counts, args, kwargs, cert):
    g = args[0]
    counts["analysis.clique_vertices_in"] += g.n
    counts["analysis.clique_edges_in"] += g.edge_count()
    counts["analysis.omega_found"] = max(counts["analysis.omega_found"], cert.size)


def _count_base(counts, args, kwargs, hypergraph):
    counts["mbe.base_edges"] += len(hypergraph.hyperedges)


def _count_blowup(counts, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t == 1:                       # identity blow-up: nothing copied or deleted
        return
    report = result[1]
    counts["mbe.candidate_copies"] += report.candidate_copies
    counts["mbe.retained"] += report.retained
    counts["mbe.deleted"] += report.deleted


def _count_dense(counts, args, kwargs, found):
    e = len(args[0])
    counts["mbe.dense_pairs_computed"] += e * (e - 1) // 2


def _count_fallback(counts, args, kwargs, result):
    counts["weighted.fallbacks"] += int(result.used_fallback)


# (span name, module, attribute, count); an attribute "Class.method" is a method
TARGETS = [
    ("cli.gen-cbe", "cli", "cmd_gen_cbe", _count_outputs),
    ("cli.gen-mbe", "cli", "cmd_gen_mbe", _count_outputs),
    ("cli.analyze", "cli", "cmd_analyze", _count_outputs),
    ("cli.certify", "cli", "cmd_certify", _count_outputs),
    ("cli.run_suite", "cli", "run_suite", _count_suite),
    ("sphere.sample", "sphere", "sample_complex_sphere", _count_points),
    ("sphere.sample", "sphere", "sample_real_sphere", _count_points),
    ("cbe.build_cbe", "cbe", "build_cbe", _count_cbe),
    ("analysis.max_clique", "analysis", "max_clique", _count_clique),
    ("analysis.from_adjacency", "analysis", "LabeledGraph.from_adjacency", None),
    ("analysis.read_edge_list", "analysis", "read_edge_list", None),
    ("analysis.p_independence", "analysis", "p_independence", None),
    ("analysis.density_report", "analysis", "density_report", None),
    ("mbe.build_base_hypergraph", "mbe", "build_base_hypergraph", _count_base),
    ("mbe.blowup_sparsify", "mbe", "blowup_sparsify", _count_blowup),
    ("mbe.find_dense_subconfig", "mbe", "find_dense_subconfig", _count_dense),
    ("mbe.shadow", "mbe", "shadow_graph", None),
    ("mbe.cross_blocks", "mbe", "MbeGraph.__init__", None),
    ("weighted.find_G_pq_subgraph", "weighted", "find_G_pq_subgraph", _count_fallback),
    ("weighted.find_herculean", "weighted", "find_herculean", None),
    ("weighted.extension_value_table", "weighted", "extension_value_table", None),
    ("weighted.multiset_dominates", "weighted", "multiset_dominates", None),
    ("weighted.verify", "weighted", "DominatingExtension.verify", None),
    ("weighted.verify", "weighted", "HerculeanCertificate.verify", None),
    ("weighted.in_G_p_q", "weighted", "in_G_p_q", None),
    ("weighted.g_of_A", "weighted", "g_of_A", None),
    ("weighted.g_of_A_numeric", "weighted", "g_of_A_numeric", None),
]

MODULES = ("sphere", "cbe", "mbe", "analysis", "weighted", "cli")


def install() -> Recorder:
    """Wrap every target in place and return the recorder the shims feed.

    A function is replaced in every rtlab module that holds it by name
    (cli imports most of them with `from ... import`), so intra-module calls
    and cross-module calls both pass through the shim.
    """
    rec = Recorder()
    modules = [importlib.import_module(f"rtlab.{m}") for m in MODULES]
    for span, modname, attr, count in TARGETS:
        owner = importlib.import_module(f"rtlab.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(span, raw.__func__, count)))
            else:
                setattr(cls, meth, rec.wrap(span, raw, count))
            continue
        original = getattr(owner, attr)
        shim = rec.wrap(span, original, count)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, shim)
    return rec


# -- aggregation -------------------------------------------------------------

def _self_times(spans):
    child = defaultdict(int)
    for sid, parent, name, start, end in spans:
        child[parent] += end - start
    self_ns, total_ns, calls = defaultdict(int), defaultdict(int), defaultdict(int)
    for sid, parent, name, start, end in spans:
        self_ns[name] += end - start - child[sid]
        total_ns[name] += end - start
        calls[name] += 1
    return self_ns, total_ns, calls


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced process (times in seconds)."""
    self_ns, total_ns, calls = _self_times(trace["spans"])
    counts = defaultdict(int, trace["counts"])
    s = {name: ns / 1e9 for name, ns in self_ns.items()}
    m = {}
    for cmd in ("gen-cbe", "analyze", "gen-mbe", "certify"):
        m[f"cli.{cmd}_s"] = total_ns.get(f"cli.{cmd}", 0) / 1e9
    m["cli.self_s"] = sum(v for k, v in s.items() if k.startswith("cli."))
    m["cli.bytes_out"] = counts["cli.bytes_out"]
    m["cli.edge_lines_out"] = counts["cli.edge_lines_out"]

    m["sphere.sample_s"] = s.get("sphere.sample", 0.0)
    m["sphere.points_sampled"] = counts["sphere.points_sampled"]

    m["cbe.build_s"] = s.get("cbe.build_cbe", 0.0)
    for key in ("vertices", "cross_edges", "inner_edges"):
        m[f"cbe.{key}"] = counts[f"cbe.{key}"]

    for fn in ("max_clique", "from_adjacency", "read_edge_list",
               "p_independence", "density_report"):
        m[f"analysis.{fn}_s"] = s.get(f"analysis.{fn}", 0.0)
    m["analysis.max_clique_calls"] = calls["analysis.max_clique"]
    for key in ("clique_vertices_in", "clique_edges_in", "omega_found"):
        m[f"analysis.{key}"] = counts[f"analysis.{key}"]

    for fn in ("build_base_hypergraph", "blowup_sparsify", "find_dense_subconfig"):
        m[f"mbe.{fn}_s"] = s.get(f"mbe.{fn}", 0.0)
    m["mbe.find_dense_subconfig_calls"] = calls["mbe.find_dense_subconfig"]
    m["mbe.shadow_s"] = s.get("mbe.shadow", 0.0)
    m["mbe.cross_blocks_s"] = s.get("mbe.cross_blocks", 0.0)
    for key in ("dense_pairs_computed", "base_edges", "candidate_copies",
                "retained", "deleted"):
        m[f"mbe.{key}"] = counts[f"mbe.{key}"]
    m["mbe.deleted_per_retained"] = (counts["mbe.deleted"] / counts["mbe.retained"]
                                     if counts["mbe.retained"] else 0.0)

    for fn in ("find_G_pq_subgraph", "find_herculean", "extension_value_table",
               "multiset_dominates", "verify", "in_G_p_q", "g_of_A",
               "g_of_A_numeric"):
        m[f"weighted.{fn}_s"] = s.get(f"weighted.{fn}", 0.0)
    m["weighted.dp_tables"] = calls["weighted.extension_value_table"]
    m["weighted.multiset_dominates_calls"] = calls["weighted.multiset_dominates"]
    for key in ("graphs_checked", "graphs_skipped", "fallbacks", "membership_graphs"):
        m[f"weighted.{key}"] = counts[f"weighted.{key}"]
    m["weighted.fallback_frac"] = (counts["weighted.fallbacks"] / counts["weighted.graphs_checked"]
                                   if counts["weighted.graphs_checked"] else 0.0)
    return m


def span_table(trace: dict) -> dict:
    """Every span of one traced process, with its parent id."""
    spans = trace["spans"]
    t0 = min((start for _, _, _, start, _ in spans), default=0)
    return {"columns": ["id", "parent", "name", "start_s", "duration_s"],
            "spans": [[sid, parent, name, (start - t0) / 1e9, (end - start) / 1e9]
                      for sid, parent, name, start, end in sorted(spans)]}
