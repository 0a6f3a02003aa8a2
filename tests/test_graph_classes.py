"""The isomorphism-class enumerator behind the exhaustive weighted-graph
suites, checked against brute-force relabelling, and the suites checked
against the labelled loops they replaced (kept here as the reference)."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rtlab import cli, weighted
from rtlab.analysis import rho_star
from rtlab.cli import main, positive_graph_classes, suite_dominance_axioms, suite_smallp
from rtlab.weighted import PWeightedGraph, find_G_pq_subgraph, in_G_p_q

# ---------------------------------------------------------------------------
# the labelled loops, as the suites ran them before they ran once per class
# ---------------------------------------------------------------------------

def reference_positive_graphs(p, m):
    for upper in itertools.product(range(1, p + 1), repeat=m * (m - 1) // 2):
        yield PWeightedGraph.from_upper(p, m, upper)


def reference_suite_smallp(p, sizes=None):
    """suite_smallp over every labelled graph; sizes (default the suite's
    1..5 for p = 3, 1..4 otherwise) picks the vertex counts."""
    rho = rho_star(p, p + 2)[0]
    checked = skipped = failures = 0
    failing = []
    for m in sizes or range(1, (5 if p == 3 else 4) + 1):
        threshold = Fraction(p) * rho * m
        for g in reference_positive_graphs(p, m):
            if Fraction(g.delta()) <= threshold:
                skipped += 1
                continue
            checked += 1
            res = find_G_pq_subgraph(g, 1)
            if not (res.extension is not None and res.extension.verify(g)
                    and res.extension.size >= p + 2):
                failures += 1
                if len(failing) < 10:
                    failing.append(g.to_text())
    return {"suite": f"smallp-p{p}-t1", "passed": failures == 0,
            "counters": {"checked": checked, "skipped": skipped,
                         "failures": failures},
            "failing_examples": failing}


def reference_membership():
    """suite_dominance_axioms' membership loop over every labelled graph:
    (all members, labelled graph count)."""
    membership_ok = True
    counted = 0
    for p in range(1, 5):
        for m in range(1, 5):
            for g in reference_positive_graphs(p, m):
                counted += 1
                t = max((g.w[i][j] for i in range(m) for j in range(i + 1, m)),
                        default=0)
                ext = in_G_p_q(g, p + t + m - 2)
                if ext is None or not ext.verify(g):
                    membership_ok = False
    return membership_ok, counted


# ---------------------------------------------------------------------------
# brute-force relabelling, sharing no code with the enumerator
# ---------------------------------------------------------------------------

def upper(g):
    return tuple(g.w[i][j] for i in range(g.m) for j in range(i + 1, g.m))


def relabellings(g):
    """(perm, upper weights of the graph h with h[i][j] = g[perm i][perm j])
    for every permutation of g's vertices."""
    m = g.m
    for perm in itertools.permutations(range(m)):
        yield perm, tuple(g.w[perm[i]][perm[j]]
                          for i in range(m) for j in range(i + 1, m))


def code_of(p, weights):
    """Index of the upper weights in itertools.product(range(1, p + 1)) order."""
    code = 0
    for w in weights:
        code = code * p + (w - 1)
    return code


def isomorphic(g, h):
    return g.m == h.m and any(rel == upper(h) for _, rel in relabellings(g))


# ---------------------------------------------------------------------------
# the enumerator
# ---------------------------------------------------------------------------

CLASS_COUNTS = [(2, 4, 11), (2, 5, 34), (4, 3, 20), (3, 4, 66), (4, 4, 276),
                (3, 5, 792)]


@pytest.mark.parametrize("p, m, count", CLASS_COUNTS)
def test_class_counts_and_orbit_sizes(p, m, count):
    reps, sizes, class_of, consistent = positive_graph_classes(p, m)
    assert consistent
    assert len(reps) == len(sizes) == count
    assert sum(sizes) == p ** (m * (m - 1) // 2) == len(class_of)
    for g, size in zip(reps, sizes):
        aut = sum(rel == upper(g) for _, rel in relabellings(g))
        assert math.factorial(m) % aut == 0
        assert size == math.factorial(m) // aut
    # each representative is its class's first code, in ascending order
    codes = [code_of(p, upper(g)) for g in reps]
    assert codes == sorted(codes)
    first_index = np.unique(class_of, return_index=True)[1]
    assert first_index.tolist() == codes
    assert np.bincount(class_of).tolist() == sizes


@pytest.mark.parametrize("p, m", [(p, m) for p in (1, 2, 3) for m in (1, 2, 3, 4)])
def test_every_labelled_graph_maps_onto_its_representative(p, m):
    reps, sizes, class_of, consistent = positive_graph_classes(p, m)
    assert consistent
    rep_index = {upper(g): k for k, g in enumerate(reps)}
    earlier = set()
    firsts = []
    for code, g in enumerate(reference_positive_graphs(p, m)):
        targets = {rep_index[rel] for _, rel in relabellings(g) if rel in rep_index}
        assert targets == {class_of[code]}
        rep = reps[class_of[code]]
        perm = next(perm for perm, rel in relabellings(g) if rel == upper(rep))
        assert all(g.w[perm[i]][perm[j]] == rep.w[i][j]
                   for i in range(m) for j in range(m))
        if not any(rel in earlier for _, rel in relabellings(g)):
            firsts.append(upper(g))
        earlier.add(upper(g))
    assert firsts == [upper(g) for g in reps]


# ---------------------------------------------------------------------------
# the suites against the labelled loops
# ---------------------------------------------------------------------------

def test_smallp_p4_report_matches_labelled_loop():
    assert suite_smallp(4) == reference_suite_smallp(4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_smallp_p3_counters_match_labelled_loop(m):
    counters, failing, consistent = cli._smallp_level(3, m, rho_star(3, 5)[0])
    ref = reference_suite_smallp(3, sizes=[m])
    assert consistent
    assert (counters, failing) == (ref["counters"], ref["failing_examples"])


@pytest.mark.parametrize("seed", [0, 3])
def test_dominance_report_matches_labelled_loop(monkeypatch, seed):
    report = suite_dominance_axioms(seed)
    monkeypatch.setattr(cli, "_membership", reference_membership)
    assert report == suite_dominance_axioms(seed)


# the class the patched producers miss on: on p = 4, m = 4, above the smallp
# degree threshold, with orbit size 24
MISSED = PWeightedGraph.from_upper(4, 4, [4, 4, 3, 4, 2, 4])


def test_finder_miss_reports_like_labelled_loop(monkeypatch):
    def missing(g, t):
        res = weighted.find_G_pq_subgraph(g, t)
        return dataclasses.replace(res, extension=None) if isomorphic(g, MISSED) else res

    monkeypatch.setattr(cli, "find_G_pq_subgraph", missing)
    report = suite_smallp(4)
    monkeypatch.setitem(globals(), "find_G_pq_subgraph", missing)
    ref = reference_suite_smallp(4)
    assert report == ref
    assert not report["passed"] and report["counters"]["failures"] == 24
    assert len(report["failing_examples"]) == 10


def test_membership_miss_reports_like_labelled_loop(monkeypatch):
    def missing(g, q):
        return None if isomorphic(g, MISSED) else weighted.in_G_p_q(g, q)

    monkeypatch.setattr(cli, "in_G_p_q", missing)
    report = suite_dominance_axioms(0)
    monkeypatch.setitem(globals(), "in_G_p_q", missing)
    monkeypatch.setattr(cli, "_membership", reference_membership)
    assert report == suite_dominance_axioms(0)
    assert not report["passed"]


@pytest.mark.parametrize("suite", ["smallp-p4-t1", "dominance-axioms"])
def test_orbit_count_mismatch_exits_1(monkeypatch, capsys, suite):
    # one permutation short: the orbit-stabiliser self-check must fail the
    # suite, not raise
    real = cli._pair_images
    monkeypatch.setattr(cli, "_pair_images", lambda m: real(m)[:-1])
    assert main(["certify", suite]) == 1
    out, err = capsys.readouterr()
    assert '"passed": false' in out and err == ""
