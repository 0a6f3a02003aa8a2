"""Batch front-end: generate graphs, analyze edge lists, run certification
suites, and emit machine-readable reports.

Commands: gen-cbe, gen-mbe, analyze, certify, rho-star, sweep.
Exit codes: 0 all assertions passed, 1 a certified bound or suite failed,
2 usage, input or resource-gate error: a bad or missing flag, an invalid
parameter, a malformed or mistyped config-file line or a config key that
names no option of the command, a bad sweep grid value or an axis the
sweep target does not take, a certify flag the suite does not take, a
--trials below 1, an analyze --p below 2, an unreadable config file, edge
list or header, a header whose class sizes do not sum to the edge list's n,
a malformed, repeated or non-UTF-8 edge-list line or a `# n=` line that
contradicts an earlier one (reported as path:line), an equal-measure
partition that cannot meet its diameter (gen-cbe --mode strict, gen-mbe
--point-mode partition), an exact search or enumeration beyond its size
gate (gen-mbe --ell above 6, among others), or an allocation that runs out
of memory.
Every output embeds the originating configuration; reruns of the same
configuration are byte-identical (seeds are explicit, never wall-clock).
The options of gen-cbe and gen-mbe, and the sweep axes' defaults, are the
fields of CbeParams and MbeParams.  gen-* run no Monte Carlo, so they take
no thread count.  gen-cbe, gen-mbe and sweep share one evaluation function
per construction.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, fields
from fractions import Fraction

import numpy as np

from . import sphere
from .sphere import InfeasiblePartition, ResourceLimit
from .analysis import (
    MAX_EXACT_CLIQUE_VERTICES,
    density_report,
    max_clique,
    p_independence,
    read_edge_list,
    rho_star,
    write_edge_list,
)
from .cbe import MAX_GRAM_TESTS, CbeParams, build_cbe
from .mbe import MbeParams, build_mbe
from .weighted import (
    PWeightedGraph,
    find_G_pq_subgraph,
    g_of_A,
    g_of_A_numeric,
    in_G_p_q,
    multiset_dominates,
    verify_theorem15_window,
)

# ---------------------------------------------------------------------------
# certification suites (importable; the CLI wraps them)
# ---------------------------------------------------------------------------

_STREAM_GOFA = 70        # gofA-oracle's random matrices, one substream a trial
_STREAM_DOMINANCE = 71   # dominance-axioms' random multisets


def _pair_images(m):
    """(m!, m(m-1)/2) array: row r gives, for each upper-triangle pair (i, j)
    in row-major order, the index of the pair (perm[i], perm[j]), where perm
    is the r-th permutation of range(m) in itertools order.  Relabelling a
    graph by perm moves each pair's weight to that pair."""
    pairs = list(itertools.combinations(range(m), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(m)))
    return np.array([[index[min(perm[i], perm[j]), max(perm[i], perm[j])]
                      for i, j in pairs] for perm in perms],
                    dtype=np.intp).reshape(len(perms), len(pairs))


def _code_graph(p: int, m: int, code) -> PWeightedGraph:
    """The labelled graph with the given code (see positive_graph_classes)."""
    digits = np.unravel_index(code, (p,) * (m * (m - 1) // 2))
    return PWeightedGraph.from_upper(p, m, (d + 1 for d in digits))


def positive_graph_classes(p: int, m: int):
    """Isomorphism classes of the positive p-weighted graphs on m vertices.

    A labelled graph's code is its index in the product order of its
    upper-triangle weights (row by row, each in 1..p, the last fastest).
    Returns (reps, sizes, class_of, consistent): the first member in code
    order of each class, in ascending code order; each class's orbit size
    (its number of labelled members); the class index of every code; and
    whether every orbit size equals m!/|Aut(rep)|, counting the
    permutations that fix the representative.  The sizes count every code
    once, so when that holds the m!/|Aut(rep)| sum to p^(m choose 2).  A
    class's code is the minimum over its orbit, taken one permutation at a
    time.
    """
    pairs = m * (m - 1) // 2
    places = p ** np.arange(pairs - 1, -1, -1, dtype=np.int64)
    codes = np.arange(p ** pairs, dtype=np.int64)
    digits = codes[:, None] // places % p
    images = _pair_images(m)
    canon = codes.copy()
    for image in images:
        np.minimum(canon, digits @ places[image], out=canon)
    reps, class_of, sizes = np.unique(canon, return_inverse=True,
                                      return_counts=True)
    fixing = sum(digits[reps] @ places[image] == reps for image in images)
    consistent = bool((sizes * fixing == math.factorial(m)).all())
    return ([_code_graph(p, m, code) for code in reps], sizes.tolist(),
            class_of, consistent)


def _smallp_level(p: int, m: int, rho) -> tuple:
    """suite_smallp at m vertices: the labelled (checked, skipped, failures)
    counters, the first 10 failing labelled graphs in code order, and the
    class enumeration's self-check."""
    reps, sizes, class_of, consistent = positive_graph_classes(p, m)
    threshold = Fraction(p) * rho * m
    counters = {"checked": 0, "skipped": 0, "failures": 0}
    failed = []
    for k, (g, size) in enumerate(zip(reps, sizes)):
        if Fraction(g.delta()) <= threshold:
            counters["skipped"] += size
            continue
        counters["checked"] += size
        res = find_G_pq_subgraph(g, 1)
        if not (res.extension is not None and res.extension.verify(g)
                and res.extension.size >= p + 2):
            counters["failures"] += size
            failed.append(k)
    failing = [_code_graph(p, m, code).to_text()
               for code in np.flatnonzero(np.isin(class_of, failed))[:10]]
    return counters, failing, consistent


def suite_smallp(p: int) -> dict:
    """Exhaustive check at t = 1: every positive p-weighted graph on up to
    5 vertices for p = 3, 4 otherwise, with min degree above p rho*_p(p+2) m
    admits a subgraph in G_p(p+2).

    Both the degree test and the finder's success (decided by its exhaustive
    fallback) are invariant under relabelling, so the finder and the
    extension check run once per isomorphism class.  The counters are
    labelled counts, each class adding its orbit size, and the failing
    examples are the first labelled failures in product order.  The suite
    also fails when the class enumeration's orbit-stabiliser self-check
    (orbit size = m!/|Aut|) does not hold.
    """
    rho = rho_star(p, p + 2)[0]
    counters = {"checked": 0, "skipped": 0, "failures": 0}
    failing = []
    consistent = True
    for m in range(1, (5 if p == 3 else 4) + 1):
        level, examples, level_consistent = _smallp_level(p, m, rho)
        for key, count in level.items():
            counters[key] += count
        failing += examples[:10 - len(failing)]
        consistent = consistent and level_consistent
    return {"suite": f"smallp-p{p}-t1",
            "passed": counters["failures"] == 0 and consistent,
            "counters": counters,
            "failing_examples": failing}


def suite_theorem15_window() -> dict:
    """Window infeasibility for every (t <= 6, s in window)."""
    cases = []
    ok = True
    for t in range(1, 7):
        for s in range(max(1, t * (t - 2)), t * t + 1):
            rep = verify_theorem15_window(p=s + t - 1, s=s, t=t)
            cases.append({"t": t, "s": s, "passed": rep.passed})
            ok = ok and rep.passed
    return {"suite": "theorem15-window", "passed": ok,
            "counters": {"cases": len(cases),
                         "failures": sum(not c["passed"] for c in cases)},
            "cases": cases}


def suite_gofa_oracle(trials: int = 200, seed: int = 0) -> dict:
    """Exact simplex optimum vs numeric multiplicative-update oracle within
    1e-3, plus the exact equal-row-sum identity on the support."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    max_dev = 0.0
    row_sum_ok = True
    for trial in range(trials):
        rng = sphere.philox_rng(seed, _STREAM_GOFA, trial)
        m = int(rng.integers(2, 7))
        A = np.zeros((m, m), dtype=int)
        iu = np.triu_indices(m, 1)
        A[iu] = rng.integers(0, 5, size=len(iu[0]))
        A = (A + A.T).tolist()
        sol = g_of_A(A)
        approx, _ = g_of_A_numeric(A, seed=trial)
        max_dev = max(max_dev, abs(float(sol.value) - approx))
        sums = sol.row_sums(A)
        row_sum_ok = row_sum_ok and all(sums[j] == sol.value for j in sol.support)
    passed = max_dev <= 1e-3 and row_sum_ok
    return {"suite": "gofA-oracle", "passed": passed,
            "counters": {"trials": trials, "max_deviation": max_dev,
                         "row_sum_identity": row_sum_ok}}


def _membership() -> tuple:
    """(whether every positive p-weighted graph on m <= 4 vertices, p <= 4,
    with largest weight t is in G_p(p + t + m - 2) and the class
    enumeration's self-check holds, the number of labelled graphs).
    Membership and t are invariant under relabelling, so in_G_p_q and the
    extension check run once per isomorphism class."""
    membership_ok = True
    counted = 0
    for p in range(1, 5):
        for m in range(1, 5):
            reps, sizes, _, consistent = positive_graph_classes(p, m)
            membership_ok = membership_ok and consistent
            for g, size in zip(reps, sizes):
                counted += size
                t = max((g.w[i][j] for i in range(m) for j in range(i + 1, m)),
                        default=0)
                ext = in_G_p_q(g, p + t + m - 2)
                if ext is None or not ext.verify(g):
                    membership_ok = False
    return membership_ok, counted


def suite_dominance_axioms(seed: int = 0) -> dict:
    """Named dominance examples, order axioms on 500 random triples of
    rational multisets, and the m <= 4, p <= 4 exhaustive membership G in
    G_p(p + t + m - 2).

    The membership check runs once per isomorphism class; membership_graphs
    counts labelled graphs, each class adding its orbit size, and the case
    also fails when the class enumeration's orbit-stabiliser self-check
    (orbit size = m!/|Aut|) does not hold."""
    cases = []

    def case(name, ok):
        cases.append({"name": name, "passed": bool(ok)})

    case("{3,4,4} dominates {3,3,4}", multiset_dominates([3, 4, 4], [3, 3, 4]))
    case("{3,4,4} !dominates {2,2,5}",
         not multiset_dominates([3, 4, 4], [2, 2, 5]))

    rng = sphere.philox_rng(seed, _STREAM_DOMINANCE)
    axioms_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 6))
        trip = [[Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 5)))
                 for _ in range(n)] for _ in range(3)]
        a, b, c = trip
        if not multiset_dominates(a, a):
            axioms_ok = False
        if multiset_dominates(a, b) and multiset_dominates(b, a):
            axioms_ok = axioms_ok and sorted(a) == sorted(b)
        if multiset_dominates(a, b) and multiset_dominates(b, c):
            axioms_ok = axioms_ok and multiset_dominates(a, c)
    case("partial-order axioms on random multisets", axioms_ok)

    membership_ok, counted = _membership()
    case("membership G in G_p(p+t+m-2), all positive m<=4 p<=4",
         membership_ok)

    passed = all(c["passed"] for c in cases)
    return {"suite": "dominance-axioms", "passed": passed,
            "counters": {"axiom_trials": 500,
                         "membership_graphs": counted},
            "cases": cases}


# suite name -> runner.  The certify flags a suite takes are its runner's
# parameters, and their defaults are the flags' defaults.
SUITES = {
    "smallp-p3-t1": functools.partial(suite_smallp, 3),
    "smallp-p4-t1": functools.partial(suite_smallp, 4),
    "theorem15-window": suite_theorem15_window,
    "gofA-oracle": suite_gofa_oracle,
    "dominance-axioms": suite_dominance_axioms,
}
CERTIFY_FLAGS = ("trials", "seed")


def run_suite(name: str, **flags) -> dict:
    """Report of one run of the named suite, given the flags it takes."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](**flags)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _config_comment(config: dict) -> str:
    return "config " + " ".join(f"{k}={config[k]}" for k in sorted(config))


def _output(path):
    """The file at path opened for writing, or stdout when path is None."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_json(path, doc: dict):
    with _output(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _header_vertex_count(path) -> int:
    """Sum of the class sizes in a gen-* JSON summary (0 when it has none)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            sizes = doc.get("class_sizes") or doc.get("header", {}).get("class_sizes")
            return sum(int(size) for size in (sizes or {}).values())
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a gen-* JSON summary: {exc}") from None


def _write_csv(path, columns, rows, config: dict | None = None):
    """Header row and data rows; a `# config ...` line first when given."""
    with _output(path) as fh:
        if config is not None:
            fh.write(f"# {_config_comment(config)}\n")
        for row in [columns, *rows]:
            fh.write(",".join(str(x) for x in row) + "\n")


def _load_config_file(path, parser, known) -> dict:
    """Flat key = value lines; '#' starts a comment.  Maps each key, which
    must be one of the known option names, to its (value, line number)."""
    out = {}
    try:
        with open(path) as fh:
            lines = list(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: malformed config line {line!r}; "
                         "expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = key.replace("-", "_")
        if name not in known:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        out[name] = (value, lineno)
    return out


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _options(params_cls) -> dict:
    """Option name -> (type, default) of a gen-* command: the fields of its
    Params dataclass, then the output prefix.  MISSING marks a required one."""
    hints = typing.get_type_hints(params_cls)
    options = {f.name: (hints[f.name], f.default) for f in fields(params_cls)}
    options["out"] = (str, MISSING)
    return options


def _make_params(params_cls, values: dict, parser):
    try:
        return params_cls(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _merge_config(args, parser, params_cls):
    """(Params, output prefix) of a gen-* command line.  Config-file values
    fill in options the command line left unset."""
    merged = {}
    options = _options(params_cls)
    file_values = (_load_config_file(args.config, parser, options)
                   if args.config else {})
    for name, (typ, default) in options.items():
        value = getattr(args, name)
        if value is None and name in file_values:
            text, lineno = file_values[name]
            try:
                value = typ(text)
            except ValueError:
                parser.error(f"{args.config}:{lineno}: {name} = {text!r} is not "
                             f"a valid {typ.__name__}")
        if value is not None:
            merged[name] = value
        elif default is MISSING:
            parser.error(f"missing required parameter {_flag(name)}")
    out = merged.pop("out")
    return _make_params(params_cls, merged, parser), out


# ---------------------------------------------------------------------------
# evaluation: one path for gen-cbe, gen-mbe and sweep
# ---------------------------------------------------------------------------

def evaluate_cbe(params: CbeParams):
    """Build the CBE graph and certify omega <= p + ell by exhaustive search.

    Returns (graph, labelled graph, clique certificate, results), where
    results holds the columns that sweep writes and gen-cbe's CSV shares.
    """
    # max_clique gates the same count, but only after the build
    if 2 * params.n > MAX_EXACT_CLIQUE_VERTICES:
        raise ResourceLimit(f"exact clique search capped at {MAX_EXACT_CLIQUE_VERTICES} vertices")
    # a pass over a Gram matrix under 20 x 20 costs about as much as one over
    # 20 x 20, so n counts as at least 20
    tests = params.p * max(params.n, 20) ** 2
    if tests > MAX_GRAM_TESTS:
        raise ResourceLimit(f"p max(n, 20)^2 = {tests} Gram-entry tests exceed {MAX_GRAM_TESTS}")
    graph = build_cbe(params)
    lg = graph.to_labeled_graph()
    cert = max_clique(lg)
    bound = graph.omega_bound()
    results = {"cross_density": repr(graph.cross_density()), "omega": cert.size,
               "omega_bound": bound, "bound_satisfied": cert.size <= bound}
    return graph, lg, cert, results


def evaluate_mbe(params: MbeParams):
    """Build the MBE graph and certify omega <= 2^ell + 2^p + q - 2 with the
    search cut off at that bound.

    Returns (graph, labelled graph, pair densities, results), where results
    holds the columns that sweep writes and gen-mbe's CSV shares.
    """
    graph = build_mbe(params)
    lg = graph.to_labeled_graph()
    bound = graph.omega_bound()
    cert = max_clique(lg, cutoff=bound)
    densities = {f"V{i+1},V{j+1}": graph.pair_density(i, j)
                 for i, j in itertools.combinations(range(graph.classes), 2)}
    results = {"min_pair_density": repr(min(densities.values())),
               "max_pair_density": repr(max(densities.values())),
               "omega_found": cert.size, "omega_bound": bound,
               "bound_satisfied": cert.upper_bound == bound}
    return graph, lg, densities, results


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_cbe(args, parser) -> int:
    params, out = _merge_config(args, parser, CbeParams)
    graph, lg, cert, results = evaluate_cbe(params)
    n = graph.n
    config = params.to_dict()
    write_edge_list(f"{out}.edges", lg, comments=[_config_comment(config)],
                    classes=f"classes W=[0,{n}) Z=[{n},{2*n})")
    degs = graph.cross_degrees()
    summary = {
        "config": config,
        "class_sizes": {"W": n, "Z": n},
        "edge_count": lg.edge_count(),
        "cross_density": graph.cross_density(),
        "inner_edges": dict(zip("WZ", graph.inner_edges())),
        "max_inner_degree": graph.max_inner_degree(),
        "cross_degree_range": [int(degs.min()), int(degs.max())],
        "clique": {"size": cert.size, "witness": list(cert.witness),
                   "exhaustive": cert.exhaustive, "bound": results["omega_bound"],
                   "bound_satisfied": results["bound_satisfied"]},
    }
    _write_json(f"{out}.json", summary)
    _write_csv(f"{out}.csv",
               ["graph_id", "n", "cross_density", "max_inner_degree",
                "min_cross_degree", "max_cross_degree", "omega",
                "omega_exhaustive", "omega_bound", "bound_satisfied"],
               [[os.path.basename(out), lg.n, results["cross_density"],
                 graph.max_inner_degree(), int(degs.min()), int(degs.max()),
                 cert.size, cert.exhaustive, results["omega_bound"],
                 results["bound_satisfied"]]],
               config)
    return 0 if results["bound_satisfied"] else 1


def cmd_gen_mbe(args, parser) -> int:
    params, out = _merge_config(args, parser, MbeParams)
    graph, lg, densities, results = evaluate_mbe(params)
    config = params.to_dict()
    write_edge_list(f"{out}.edges", lg, comments=[_config_comment(config)],
                    classes=f"classes: {graph.classes} x {graph.class_size}")
    graph.hypergraph.write_hyperedges(f"{out}.hyper")
    summary = {
        "config": config,
        "header": graph.header_dict(),
        "pair_densities": densities,
        "clique": {"found": results["omega_found"], "bound": results["omega_bound"],
                   "bound_satisfied": results["bound_satisfied"]},
    }
    _write_json(f"{out}.json", summary)
    _write_csv(f"{out}.csv", ["graph_id", "n", "classes", "class_size", *results],
               [[os.path.basename(out), graph.n, graph.classes, graph.class_size,
                 *results.values()]],
               config)
    return 0 if results["bound_satisfied"] else 1


def cmd_analyze(args, parser) -> int:
    if args.p < 2:
        parser.error(f"--p must be at least 2, not {args.p}")
    try:
        g = read_edge_list(args.edge_list)
        if args.header and (total := _header_vertex_count(args.header)) != g.n:
            raise ValueError(f"{args.header}: class sizes sum to {total}, but the "
                             f"edge list has n={g.n}")
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    rep = density_report(g)
    cert = max_clique(g, cutoff=args.cutoff)
    lb, ub, exact = p_independence(g, args.p, exact_limit=args.exact_limit)
    columns = ["graph_id", "n", "density", "omega", "omega_exhaustive",
               "alpha_p_lb", "alpha_p_ub"]
    row = [os.path.basename(args.edge_list), g.n, repr(rep.global_density),
           cert.size, cert.exhaustive, lb, ub]
    config = {"edge_list": os.path.basename(args.edge_list), "p": args.p,
              "cutoff": args.cutoff, "exact_limit": args.exact_limit}
    _write_csv(args.out, columns, [row], config if args.out else None)
    return 0


def cmd_certify(args, parser) -> int:
    if args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    takes = inspect.signature(SUITES[args.suite]).parameters
    flags = {name: getattr(args, name) for name in CERTIFY_FLAGS
             if getattr(args, name) is not None}
    stray = [f"--{name}" for name in flags if name not in takes]
    if stray:
        parser.error(f"certify {args.suite} takes no {', '.join(stray)}")
    if flags.get("trials", 1) < 1:
        parser.error(f"--trials must be at least 1, not {flags['trials']}")
    report = run_suite(args.suite, **flags)
    if args.out:
        _write_json(args.out, report)
    _write_json(None, report)
    return 0 if report["passed"] else 1


def cmd_rho_star(args, parser) -> int:
    try:
        value, (t, r) = rho_star(args.p, args.q)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps({"p": args.p, "q": args.q, "rho_star": str(value),
                          "t": t, "r": r}, sort_keys=True))
    else:
        print(value)
    return 0


def _parse_grid(parser, value, typ, default, name):
    """Comma-separated axis values; an unset axis takes the field's default."""
    if value is None:
        if default is MISSING:
            parser.error(f"sweep requires {_flag(name)}")
        return [default]
    try:
        return [typ(tok) for tok in value.split(",")]
    except ValueError:
        parser.error(f"{_flag(name)}: {value!r} is not a comma-separated list of "
                     f"{typ.__name__} values")


# gen-* command -> (help, Params class, evaluation, the axes sweep takes, in
# CSV column order)
CONSTRUCTIONS = {
    "gen-cbe": ("build a complex two-class graph", CbeParams, evaluate_cbe,
                ("p", "ell", "k", "n", "epsilon", "big_k", "seed")),
    "gen-mbe": ("build a multipartite Borsuk-based graph", MbeParams, evaluate_mbe,
                ("ell", "p", "q", "k", "m", "epsilon", "t", "seed")),
}
SWEEP_AXES = tuple(dict.fromkeys(
    name for *_, axes in CONSTRUCTIONS.values() for name in axes))


def cmd_sweep(args, parser) -> int:
    _, params_cls, evaluate, axes = CONSTRUCTIONS[args.target]
    stray = [_flag(name) for name in SWEEP_AXES
             if name not in axes and getattr(args, name) is not None]
    if stray:
        parser.error(f"sweep {args.target} takes no {', '.join(stray)}")
    options = _options(params_cls)
    grids = [_parse_grid(parser, getattr(args, name), *options[name], name)
             for name in axes]
    rows = []
    for combo in itertools.product(*grids):
        params = _make_params(params_cls, dict(zip(axes, combo)), parser)
        results = evaluate(params)[-1]
        rows.append([*combo, *results.values()])
    _write_csv(args.out, [*axes, *results], rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtlab",
        description="Ramsey-Turan construction lab: sphere-based graph "
                    "builders and weighted-graph certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func in (("gen-cbe", cmd_gen_cbe), ("gen-mbe", cmd_gen_mbe)):
        help_text, params_cls, *_ = CONSTRUCTIONS[command]
        pg = sub.add_parser(command, help=help_text)
        for name, (typ, _) in _options(params_cls).items():
            pg.add_argument(_flag(name), type=typ)
        pg.add_argument("--config")
        pg.set_defaults(func=func, parser=pg)

    pa = sub.add_parser("analyze", help="clique/density/independence stats "
                                        "for an edge list")
    pa.add_argument("edge_list")
    pa.add_argument("--header", help="gen-* JSON summary; its class sizes must "
                                     "sum to the edge list's n")
    pa.add_argument("--p", type=int, default=3)
    pa.add_argument("--cutoff", type=int)
    pa.add_argument("--exact-limit", dest="exact_limit", type=int, default=40)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze, parser=pa)

    pv = sub.add_parser("certify", help="run a certification suite")
    pv.add_argument("suite")
    for name in CERTIFY_FLAGS:
        pv.add_argument("--" + name, type=int)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_certify, parser=pv)

    pr = sub.add_parser("rho-star", help="print the conjectured density")
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--q", type=int, required=True)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_rho_star, parser=pr)

    ps = sub.add_parser("sweep", help="cartesian parameter grid, one CSV row "
                                      "per cell")
    ps.add_argument("target", choices=list(CONSTRUCTIONS))
    for name in SWEEP_AXES:
        ps.add_argument(_flag(name))
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sweep, parser=ps)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # errors found after parsing print the command's own usage line
    try:
        return args.func(args, args.parser)
    except ResourceLimit as exc:
        args.parser.error(f"resource gate: {exc}")
    except InfeasiblePartition as exc:
        args.parser.error(f"infeasible partition: {exc}")
    except MemoryError as exc:
        args.parser.error(f"out of memory: {exc}")
    except RecursionError as exc:     # a clique search deeper than the recursion limit
        args.parser.error(f"resource gate: {exc}")
    except OSError as exc:
        # the commands report unreadable inputs themselves, so this is an
        # output; an error from a buffered write or close names no file
        path = exc.filename or getattr(args, "out", None) or "output"
        args.parser.error(f"cannot write {path}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
