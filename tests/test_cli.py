import contextlib
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import rtlab
from rtlab import cli, weighted
from rtlab.cbe import CbeParams
from rtlab.cli import main, run_suite
from rtlab.mbe import MbeParams
from test_golden import GOLDEN, digests


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# rho-star
# ---------------------------------------------------------------------------

def test_rho_star_prints_fraction(capsys):
    assert run(["rho-star", "--p", 3, "--q", 5]) == 0
    assert capsys.readouterr().out.strip() == "1/6"


def test_rho_star_json(capsys):
    assert run(["rho-star", "--p", 3, "--q", 8, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_star"] == "6/11" and doc["t"] == 2 and doc["r"] == 0


def test_rho_star_rejects_small_q(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rho-star", "--p", 3, "--q", 4])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# gen-cbe
# ---------------------------------------------------------------------------

def test_gen_cbe_spec_instance(tmp_path):
    out = tmp_path / "g"
    assert run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 16, "--n", 300,
                "--seed", 1, "--out", out]) == 0
    summary = json.loads((tmp_path / "g.json").read_text())
    assert summary["clique"]["size"] <= 4
    assert summary["clique"]["exhaustive"]
    assert summary["clique"]["bound_satisfied"]
    assert (tmp_path / "g.edges").exists() and (tmp_path / "g.csv").exists()


def test_gen_cbe_rejects_bad_ell(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen-cbe", "--p", 3, "--ell", 0, "--k", 8, "--n", 20,
             "--seed", 1, "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_gen_cbe_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 20,
             "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_gen_cbe_byte_identical_reruns(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 50,
                    "--seed", 7, "--out", d / "g"]) == 0
    for name in ("g.edges", "g.json", "g.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_cbe_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\nell = 1\nk = 8\nn = 40\nseed = 9\n")
    assert run(["gen-cbe", "--config", cfg, "--out", tmp_path / "c1"]) == 0
    assert run(["gen-cbe", "--config", cfg, "--n", 20,
                "--out", tmp_path / "c2"]) == 0
    a = json.loads((tmp_path / "c1.json").read_text())
    b = json.loads((tmp_path / "c2.json").read_text())
    assert a["config"]["n"] == 40 and b["config"]["n"] == 20


def test_gen_cbe_threads_env(tmp_path, monkeypatch):
    # gen-* run no Monte Carlo: the thread count is neither an option nor
    # part of their outputs
    argv = ["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 30, "--seed", 2]
    monkeypatch.delenv("RT_LAB_THREADS", raising=False)
    (tmp_path / "unset").mkdir()
    assert run(argv + ["--out", tmp_path / "unset" / "g"]) == 0
    monkeypatch.setenv("RT_LAB_THREADS", "3")
    (tmp_path / "set").mkdir()
    assert run(argv + ["--out", tmp_path / "set" / "g"]) == 0
    for name in ("g.edges", "g.json", "g.csv"):
        data = (tmp_path / "set" / name).read_bytes()
        assert data == (tmp_path / "unset" / name).read_bytes()
        assert b"threads" not in data
    for cmd in (argv, ["gen-mbe", "--ell", 1, "--p", 1, "--q", 2, "--k", 6,
                       "--m", 4, "--seed", 1]):
        with pytest.raises(SystemExit) as exc:
            run(cmd + ["--threads", 2, "--out", tmp_path / "x"])
        assert exc.value.code == 2


def test_gen_cbe_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\nell = 1\nk = eight\nn = 40\nseed = 9\n")
    with pytest.raises(SystemExit) as exc:
        run(["gen-cbe", "--config", cfg, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "run.cfg:3: k = 'eight'" in capsys.readouterr().err


def test_gen_cbe_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# instance\np 3\nell = 1\n")
    with pytest.raises(SystemExit) as exc:
        run(["gen-cbe", "--config", cfg, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "run.cfg:2: malformed config line 'p 3'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epsilom = 0.1", "q = 4"],
                         ids=["typo", "gen-mbe-key"])
def test_gen_cbe_config_unknown_key(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"p = 3\nell = 1\nk = 8\nn = 40\nseed = 9\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        run(["gen-cbe", "--config", cfg, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    key = line.split(" =")[0]
    assert f"run.cfg:6: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# gen-mbe
# ---------------------------------------------------------------------------

def test_gen_mbe_spec_instance(tmp_path):
    out = tmp_path / "m"
    assert run(["gen-mbe", "--ell", 1, "--p", 1, "--q", 2, "--k", 10,
                "--m", 8, "--t", 1, "--seed", 2, "--out", out]) == 0
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["clique"]["bound"] == 4
    assert summary["clique"]["bound_satisfied"]
    assert (tmp_path / "m.hyper").exists()


def test_gen_mbe_partition_points(tmp_path):
    argv = ["gen-mbe", "--ell", 1, "--p", 1, "--q", 2, "--k", 1, "--m", 128,
            "--epsilon", 0.2, "--seed", 1, "--point-mode", "partition"]
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        assert run(argv + ["--out", d / "g"]) == 0
    assert "point_mode=partition" in (a / "g.edges").read_text().splitlines()[0]
    summary = json.loads((a / "g.json").read_text())
    assert summary["clique"] == {"found": 4, "bound": 4, "bound_satisfied": True}
    for name in ("g.edges", "g.hyper", "g.json", "g.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def run_python(args, env=None, cwd=None, timeout=60):
    """Run python with args in a child process that imports this rtlab, so a
    search that hangs fails the test within the timeout instead of stalling
    the suite.  env updates the child's environment; None unsets a name."""
    src = os.path.dirname(os.path.dirname(rtlab.__file__))
    child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for name, value in (env or {}).items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, timeout=timeout, env=child_env, cwd=cwd)


def run_subprocess(argv, env=None, timeout=60):
    """Run the CLI in a child process."""
    return run_python(["-m", "rtlab", *argv], env=env, timeout=timeout)


def test_gen_mbe_long_strings_finish(tmp_path):
    # ell = 6: each Q_h assignment has 64 strings, 32 on either side
    proc = run_subprocess(["gen-mbe", "--ell", 6, "--p", 1, "--q", 2, "--k", 4,
                           "--m", 2, "--seed", 1, "--out", tmp_path / "g"])
    assert proc.returncode == 0, proc.stderr
    clique = json.loads((tmp_path / "g.json").read_text())["clique"]
    assert clique["bound_satisfied"] and clique["found"] <= clique["bound"] == 66


def test_gen_mbe_assignment_gate_is_quick(tmp_path):
    # 1000 points with one antipode each: about 10^6 hyperedge combinations
    proc = run_subprocess(["gen-mbe", "--ell", 2, "--p", 1, "--q", 2, "--k", 10,
                           "--m", 1000, "--seed", 1, "--out", tmp_path / "g"])
    assert proc.returncode == 2
    assert "resource gate" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("command, evaluate, argv", [
    ("gen-mbe", "evaluate_mbe", ["--ell", 2, "--p", 1, "--q", 2, "--k", 10,
                                 "--m", 200, "--seed", 1]),
    ("gen-cbe", "evaluate_cbe", ["--p", 3, "--ell", 1, "--k", 8, "--n", 20,
                                 "--seed", 1]),
])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command, evaluate, argv):
    def exhausted(params):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape "
                          "(400000, 400000) and data type bool")

    monkeypatch.setattr(cli, evaluate, exhausted)
    with pytest.raises(SystemExit) as exc:
        run([command, *argv, "--out", tmp_path / "g"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rtlab {command} ")
    assert "out of memory: Unable to allocate 298. GiB" in err
    assert "Traceback" not in err


def test_gen_mbe_rejects_odd_q(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen-mbe", "--ell", 2, "--p", 1, "--q", 3, "--k", 6, "--m", 4,
             "--seed", 1, "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_gen_mbe_rejects_small_ell(tmp_path):
    # ell >= p (q - 1) = 3 violated
    with pytest.raises(SystemExit) as exc:
        run(["gen-mbe", "--ell", 2, "--p", 1, "--q", 4, "--k", 6, "--m", 4,
             "--seed", 1, "--out", tmp_path / "x"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Process start-up and the BLAS thread pool
# ---------------------------------------------------------------------------

_STARTUP_SCRIPT = """
import sys
import rtlab.cli
scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not scipy, scipy
assert "numpy.random" in sys.modules
assert rtlab.cli.main(sys.argv[1].split()) == 0
try:
    rtlab.cli.main(sys.argv[2].split())
except SystemExit as exc:
    assert exc.code == 2, exc.code
else:
    raise AssertionError("the partition of S^2 did not exit 2")
assert "scipy.special" in sys.modules
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # only the equal-measure partition needs scipy, and it imports it itself;
    # numpy.random is loaded at start-up, not inside the first command.  The
    # golden strict case partitions S^1, whose one axis is uniform in angle,
    # so it needs no scipy; a partition of S^2 must load it, for the polar
    # axis, before it can certify (here refute) the cell diameter
    [strict], [code], golden = GOLDEN["gen-cbe-strict"]
    partition = ("gen-mbe --ell 1 --p 1 --q 2 --k 2 --m 64 --epsilon 0.2 --seed 1 "
                 "--point-mode partition --out part")
    proc = run_python(["-c", _STARTUP_SCRIPT, strict, partition], cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "n=64 cells on S^2(R) certify diameter 0.752539 > delta" in proc.stderr
    assert digests(tmp_path) == golden


@pytest.mark.parametrize("value, seen", [(None, "4"), ("20", "20")])
def test_blas_thread_timeout_default(value, seen):
    proc = run_python(["-c", "import os, rtlab; "
                             "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"],
                      env={"OPENBLAS_THREAD_TIMEOUT": value})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == seen


def test_gen_cbe_bytes_independent_of_blas_threads(tmp_path):
    # at n = 800 per class OpenBLAS splits the Gram product between threads;
    # the last run keeps OpenBLAS's own idle timeout of 28, not rtlab's 4
    argv = ["gen-cbe", "--p", 3, "--ell", 1, "--k", 16, "--n", 800, "--seed", 1]
    runs = {"threads1": {"OPENBLAS_NUM_THREADS": "1"},
            "threads2": {"OPENBLAS_NUM_THREADS": "2"},
            "timeout28": {"OPENBLAS_NUM_THREADS": None, "OPENBLAS_THREAD_TIMEOUT": "28"}}
    outputs = []
    for name, env in runs.items():
        (tmp_path / name).mkdir()
        proc = run_subprocess(argv + ["--out", tmp_path / name / "g"], env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(digests(tmp_path / name))
    assert {"g.edges", "g.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# gen-* options, derived from the Params dataclasses
# ---------------------------------------------------------------------------

def _argv(values):
    return [str(x) for name, value in values.items()
            for x in ("--" + name.replace("_", "-"), value)]


# command -> (Params class, required values of a small instance,
#             field -> (value, base values it needs changed))
FIELD_CASES = {
    "gen-cbe": (CbeParams, {"p": 3, "ell": 1, "k": 8, "n": 20, "seed": 1}, {
        "p": (4, {}), "ell": (2, {}), "k": (6, {}), "n": (15, {}), "seed": (2, {}),
        "epsilon": (0.03, {}), "big_k": (3.0, {}),
        "mode": ("strict", {"k": 1, "n": 100, "epsilon": 0.4}),
    }),
    "gen-mbe": (MbeParams, {"ell": 2, "p": 1, "q": 2, "k": 6, "m": 4, "seed": 3}, {
        "ell": (3, {}), "p": (2, {}), "q": (4, {"ell": 3}), "k": (8, {}),
        "m": (6, {}), "seed": (4, {}), "epsilon": (0.1, {}), "t": (4, {"m": 2}),
        "retention": (0.25, {}),
        "point_mode": ("partition", {"ell": 1, "k": 1, "m": 128, "epsilon": 0.2}),
    }),
}


@pytest.mark.parametrize("command, field", [
    (command, f.name) for command, (cls, _, _) in FIELD_CASES.items()
    for f in dataclasses.fields(cls)])
def test_gen_option_by_flag_or_config_key(tmp_path, command, field):
    _, base, cases = FIELD_CASES[command]
    value, changes = cases[field]
    values = {**base, **changes}
    cfg = _write(tmp_path / "run.cfg", f"{field} = {value}\n")
    # the strict-mode instance has k = 1, outside the CBE advisory hierarchy
    advisory = (pytest.warns(UserWarning, match="parameter hierarchy advisory")
                if (command, field) == ("gen-cbe", "mode") else contextlib.nullcontext())
    with advisory:
        assert run([command, *_argv({**values, field: value}),
                    "--out", tmp_path / "flag"]) == 0
        values.pop(field, None)
        assert run([command, *_argv(values), "--config", cfg,
                    "--out", tmp_path / "file"]) == 0
    flag = json.loads((tmp_path / "flag.json").read_text())["config"]
    assert flag == json.loads((tmp_path / "file.json").read_text())["config"]
    assert flag["bigK" if field == "big_k" else field] == value


@pytest.mark.parametrize("command, options", [
    ("gen-cbe", "p ell k n seed epsilon big-k mode out config"),
    ("gen-mbe", "ell p q k m seed epsilon t retention point-mode out config"),
])
def test_gen_options_are_the_params_fields(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    flags = re.findall(r"\[--([\w-]+)", capsys.readouterr().out)
    assert sorted(flags) == sorted(options.split())


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, message", [
    ("gen-cbe", "--epsilon", "epsilon must be positive and finite"),
    ("gen-cbe", "--big-k", "big_k must be finite and at least 1"),
    ("gen-mbe", "--epsilon", "epsilon must be positive and finite"),
    ("gen-mbe", "--retention", "retention must lie in (0, 1]"),
], ids=["gen-cbe-epsilon", "gen-cbe-big-k", "gen-mbe-epsilon", "gen-mbe-retention"])
def test_gen_non_finite_value_exits_2(tmp_path, capsys, command, flag, message, value):
    _, base, _ = FIELD_CASES[command]
    with pytest.raises(SystemExit) as exc:
        run([command, *_argv(base), flag, value, "--out", tmp_path / "g"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("command, flag, message", [
    ("gen-cbe", "--mode", "mode must be 'sampled' or 'strict'"),
    ("gen-mbe", "--point-mode", "point_mode must be 'antipodal' or 'partition'"),
])
def test_gen_invalid_mode_exits_2(tmp_path, capsys, command, flag, message):
    _, base, _ = FIELD_CASES[command]
    out = tmp_path / "g"
    with pytest.raises(SystemExit) as exc:
        run([command, *_argv(base), flag, "bogus", "--out", out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_roundtrip(tmp_path):
    out = tmp_path / "g"
    run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 40, "--seed", 4,
         "--out", out])
    csv = tmp_path / "stats.csv"
    assert run(["analyze", tmp_path / "g.edges", "--header", tmp_path / "g.json",
                "--p", 3, "--out", csv]) == 0
    lines = csv.read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["graph_id", "n", "density", "omega", "omega_exhaustive",
                      "alpha_p_lb", "alpha_p_ub"]
    row = lines[2].split(",")
    assert row[1] == "80"
    assert int(row[5]) <= int(row[6])


def test_analyze_stdout(tmp_path, capsys):
    out = tmp_path / "g"
    run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 20, "--seed", 4,
         "--out", out])
    assert run(["analyze", tmp_path / "g.edges", "--p", 2,
                "--cutoff", 5]) == 0
    assert "graph_id" in capsys.readouterr().out


def test_gen_cbe_strict_counts_match_edge_list(tmp_path):
    # the golden strict configuration, whose classes have inner edges
    run(["gen-cbe", "--p", 3, "--ell", 1, "--k", 1, "--n", 140, "--epsilon", 0.27,
         "--seed", 2, "--mode", "strict", "--out", tmp_path / "g"])
    summary = json.loads((tmp_path / "g.json").read_text())
    assert summary["max_inner_degree"] == 42
    n = summary["class_sizes"]["W"]
    edges = [tuple(map(int, line.split()))
             for line in (tmp_path / "g.edges").read_text().splitlines()
             if not line.startswith("#")]
    assert summary["edge_count"] == len(edges)
    assert summary["inner_edges"] == {
        "W": sum(v < n for u, v in edges),
        "Z": sum(u >= n for u, v in edges)}


def _write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


def complete_graph_text(n):
    """The edge list of K_n."""
    return f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in itertools.combinations(range(n), 2))


# (argv after the command, given tmp_path; expected fragment of the error)
BAD_INPUTS = {
    "missing-config": (lambda d: ["gen-cbe", "--config", d / "missing.cfg"],
                       "missing.cfg"),
    "missing-edges": (lambda d: ["analyze", d / "missing.edges"], "missing.edges"),
    "missing-header": (lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"),
                                  "--header", d / "missing.json"], "missing.json"),
    "bad-header": (lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"),
                              "--header", _write(d / "h.json", "{")], "h.json: "),
    "header-shape": (lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"),
                                "--header", _write(d / "h.json", '{"header": 3}')],
                     "h.json: not a gen-* JSON summary"),
    "header-count": (lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"),
                                "--header",
                                _write(d / "h.json", '{"class_sizes": {"W": 2, "Z": 3}}')],
                     "h.json: class sizes sum to 5, but the edge list has n=3"),
    "non-integer": (lambda d: ["analyze", _write(d / "g.edges", "# n=3\n1 x\n")],
                    "g.edges:2: bad line '1 x'"),
    "three-ids": (lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1 2\n")],
                  "g.edges:2: bad line '0 1 2'"),
    "out-of-range": (lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1\n1 5\n")],
                     "g.edges:3: bad line '1 5'"),
    "loop": (lambda d: ["analyze", _write(d / "g.edges", "0 1\n\n2 2\n")],
             "g.edges:3: bad line '2 2'"),
    "bad-count": (lambda d: ["analyze", _write(d / "g.edges", "# n=three\n")],
                  "g.edges:1: bad line"),
    "repeat-before-out-of-range": (
        lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1\n1 0\n0 7\n")],
        "g.edges:3: edge '1 0' repeats line 2"),
    "out-of-range-before-repeat": (
        lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1\n0 7\n1 0\n")],
        "g.edges:3: bad line '0 7'"),
    "id-over-int64": (lambda d: ["analyze", _write(d / "g.edges", f"0 1\n1 {2**63}\n")],
                      f"g.edges:2: bad line '1 {2**63}'"),
    "repeated-edge": (lambda d: ["analyze", _write(d / "g.edges",
                                                   "# n=3\n0 1\n1 2\n0 1\n")],
                      "g.edges:4: edge '0 1' repeats line 2"),
    "reversed-edge": (lambda d: ["analyze", _write(d / "g.edges",
                                                   "# n=3\n0 1\n1 2\n2 1\n")],
                      "g.edges:4: edge '2 1' repeats line 3"),
    "out-of-range-above-count": (
        lambda d: ["analyze", _write(d / "g.edges", "0 1\n1 5\n# n=3\n")],
        "g.edges:2: bad line '1 5'"),
    "not-utf8": (lambda d: ["analyze", _write(d / "g.edges", b"# n=3\n0 1\n\xff 2\n")],
                 "g.edges:3: line is not UTF-8"),
    "contradicting-count": (
        lambda d: ["analyze", _write(d / "g.edges", "# n=5\n0 1\n# n=2\n")],
        "g.edges:3: '# n=2' contradicts '# n=5' on line 1"),
    "negative-cutoff": (lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"),
                                   "--cutoff", -1], "--cutoff must be at least 0, not -1"),
    "negative-exact-limit": (
        lambda d: ["analyze", _write(d / "ok.edges", "# n=3\n0 1\n"), "--exact-limit", -1],
        "--exact-limit must be at least 0, not -1"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_unreadable_or_malformed_input_exits_2(tmp_path, capsys, case):
    argv, fragment = BAD_INPUTS[case]
    with pytest.raises(SystemExit) as exc:
        run(argv(tmp_path))
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_analyze_accepts_a_repeated_count(tmp_path, capsys):
    assert run(["analyze", _write(tmp_path / "g.edges", "# n=5\n0 1\n# n=5\n")]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("g.edges,5,")


@pytest.mark.parametrize("argv, fragment", [
    (lambda d: ["gen-mbe", "--ell", 2, "--p", 1, "--q", 2, "--k", 4, "--m", 1002,
                "--seed", 1, "--out", d / "g"], "m^ell = 1004004 exceeds"),
    (lambda d: ["gen-mbe", "--ell", 2, "--p", 1, "--q", 2, "--k", 10, "--m", 200,
                "--seed", 1, "--out", d / "g"], "40000 x 40000 cross-block temporaries"),
    (lambda d: ["analyze", _write(d / "big.edges", "# n=5001\n0 1\n")],
     "capped at 5000 vertices"),
    (lambda d: ["analyze", _write(d / "big.edges", f"# n={10**30}\n0 1\n")],
     f"packed rows of n={10**30} vertices"),
    (lambda d: ["gen-mbe", "--ell", 7, "--p", 1, "--q", 2, "--k", 4, "--m", 2,
                "--seed", 1, "--out", d / "g"], "capped at ell <= 6"),
    (lambda d: ["sweep", "gen-mbe", "--ell", 7, "--p", 1, "--q", 2, "--k", 4,
                "--m", 2, "--seed", 1, "--out", d / "s.csv"], "capped at ell <= 6"),
    # the ell gate comes before m^ell, whose value has 4,335 digits here
    (lambda d: ["gen-mbe", "--ell", 7200, "--p", 1, "--q", 2, "--k", 10, "--m", 4,
                "--seed", 1, "--out", d / "g"], "capped at ell <= 6"),
    # the m gate comes before any point is drawn
    (lambda d: ["gen-mbe", "--ell", 2, "--p", 1, "--q", 2, "--k", 4, "--m", 10 ** 400,
                "--seed", 1, "--out", d / "g"], "m exceeds the desk bound 1000000"),
], ids=["gen-mbe-hyperedges", "gen-mbe-adjacency", "analyze-clique", "analyze-rows",
        "gen-mbe-ell", "sweep-mbe-ell", "gen-mbe-ell-before-m^ell",
        "gen-mbe-m-before-points"])
def test_resource_gate_exits_2(tmp_path, capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        run(argv(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "resource gate" in err and fragment in err
    assert "Traceback" not in err


def test_analyze_clique_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # K_1100 is not K_1100-free: the p-independence greedy's clique search at
    # its last vertex goes one level deep per earlier vertex, past Python's
    # recursion limit of 1,000 frames.  The greedy keeps all but the last
    # vertex, and the packing finds the one K_1100
    path = _write(tmp_path / "k.edges", complete_graph_text(1100))
    assert run(["analyze", path, "--p", 1100]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert (row["omega"], row["alpha_p_lb"], row["alpha_p_ub"]) == ("1100", "1099", "1099")


def test_analyze_exact_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    # one edge: the K_2-free search cannot stop early and goes one level deep
    # per vertex, past Python's recursion limit of 1,000 frames
    path = _write(tmp_path / "deep.edges", "# n=1500\n0 1\n")
    assert run(["analyze", path, "--p", 2, "--exact-limit", 5000]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:2] == ["deep.edges", "1500"] and row[-2:] == ["1499", "1499"]


# one huge value of one flag on the small instances of FIELD_CASES
@pytest.mark.parametrize("command, flag, value, fragment", [
    ("gen-mbe", "--t", 10 ** 400, "resource gate: N t blown-up vertices exceed"),
    ("sweep", "--t", 10 ** 400, "resource gate: N t blown-up vertices exceed"),
    ("gen-mbe", "--k", 10 ** 400, "k must be at least 1 and at most the largest float"),
    ("gen-mbe", "--k", 10 ** 300, "resource gate: 2 points in dimension"),
    ("gen-cbe", "--k", 10 ** 400, "k must be at least 1 and at most the largest float"),
    ("gen-cbe", "--k", 10 ** 300, "resource gate: 20 points in dimension"),
    ("gen-cbe", "--p", 10 ** 400, "p must be at least 2 and at most the largest float"),
    ("gen-cbe", "--n", 10 ** 400, "resource gate: exact clique search capped at 5000 vertices"),
], ids=["gen-mbe-t", "sweep-mbe-t", "gen-mbe-k", "gen-mbe-k-points", "gen-cbe-k",
        "gen-cbe-k-points", "gen-cbe-p", "gen-cbe-n"])
def test_huge_integer_exits_2(tmp_path, capsys, command, flag, value, fragment):
    if command == "sweep":
        argv = ["sweep", "gen-mbe", *_argv(FIELD_CASES["gen-mbe"][1]), flag, f"1,{value}",
                "--out", tmp_path / "s.csv"]
    else:
        argv = [command, *_argv(FIELD_CASES[command][1]), flag, value,
                "--out", tmp_path / "g"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("p, n, tests", [(10 ** 9, 20, 400 * 10 ** 9),
                                         (2_500_001, 1, 1_000_000_400)])
def test_gen_cbe_gates_p_before_the_build(tmp_path, capsys, monkeypatch, p, n, tests):
    """p passes over n x n Gram matrices, a pass under 20 x 20 counted as one
    of 20 x 20: hours of work at either size, refused before any point is
    drawn."""
    monkeypatch.setattr(cli, "build_cbe", lambda params: pytest.fail("built"))
    with pytest.raises(SystemExit) as exc, pytest.warns(UserWarning, match="advisory"):
        run(["gen-cbe", "--p", p, "--ell", 1, "--k", 8, "--n", n, "--seed", 1,
             "--out", tmp_path / "g"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"resource gate: p max(n, 20)^2 = {tests} Gram-entry tests exceed 1000000000" in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, fragment", [
    (lambda d: ["gen-cbe", "--p", 3, "--ell", 1, "--k", 16, "--n", 20, "--seed", 1,
                "--mode", "strict", "--out", d / "g"],
     "n=20 cells on S^31(R) certify diameter"),
    (lambda d: ["gen-mbe", "--ell", 1, "--p", 1, "--q", 2, "--k", 6, "--m", 4,
                "--seed", 1, "--point-mode", "partition", "--out", d / "g"],
     "n=4 cells on S^6(R) certify diameter"),
], ids=["gen-cbe-strict", "gen-mbe-partition"])
def test_infeasible_partition_exits_2(tmp_path, capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        run(argv(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "infeasible partition" in err and fragment in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("argv", [
    lambda d: ["gen-cbe", "--p", 3, "--ell", 1, "--k", 8, "--n", 20, "--seed", 1,
               "--mode", "bogus", "--out", d / "g"],
    lambda d: ["certify", "gofA-oracle", "--trials", 0],
    lambda d: ["analyze", d / "missing.edges"],
    lambda d: ["analyze", _write(d / "big.edges", "# n=5001\n0 1\n")],
    lambda d: ["sweep", "gen-cbe", "--p", 3, "--ell", 1, "--k", "8,x", "--n", 20,
               "--out", d / "s.csv"],
    lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1\n"), "--p", 1],
], ids=["gen-cbe-mode", "certify-trials", "analyze-missing", "analyze-gate",
        "sweep-grid", "analyze-p"])
def test_command_errors_print_the_command_usage(tmp_path, capsys, argv):
    argv = argv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: rtlab {argv[0]} ")
    assert f"rtlab {argv[0]}: error: " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, written", [
    (lambda d: ["gen-cbe", *_argv(FIELD_CASES["gen-cbe"][1])], "g.edges"),
    (lambda d: ["gen-mbe", *_argv(FIELD_CASES["gen-mbe"][1])], "g.edges"),
    (lambda d: ["analyze", _write(d / "g.edges", "# n=3\n0 1\n")], "g"),
    (lambda d: ["certify", "theorem15-window"], "g"),
    (lambda d: ["sweep", "gen-cbe", *_argv(FIELD_CASES["gen-cbe"][1])], "g"),
], ids=["gen-cbe", "gen-mbe", "analyze", "certify", "sweep"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, written):
    """Exit 1 means a certified bound failed; a path that cannot be written
    is a usage error, named in the message."""
    out = tmp_path / "missing" / "g"
    with pytest.raises(SystemExit) as exc:
        run([*argv(tmp_path), "--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write {out.parent / written}: No such file or directory" in err
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_names_the_output(capsys):
    # the write fails on flush, with no file name in the error
    with pytest.raises(SystemExit) as exc:
        run(["certify", "theorem15-window", "--out", "/dev/full"])
    assert exc.value.code == 2
    assert "cannot write /dev/full: No space left on device" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_smallp_p4(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run(["certify", "smallp-p4-t1", "--out", report_path]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["passed"] and doc["counters"]["failures"] == 0


@pytest.mark.parametrize("suite", ["smallp-p4-t1", "dominance-axioms"])
def test_suites_catch_an_unsound_extension_producer(monkeypatch, suite):
    # the producers do not check their own extensions; the suites' Fraction
    # verifier must catch a feasible weight that is one too large
    real = weighted._weight_of_two_smallest
    monkeypatch.setattr(weighted, "_weight_of_two_smallest",
                        lambda p, min1, min2: real(p, min1, min2) + 1)
    assert not run_suite(suite)["passed"]


def test_certify_gofa_small(capsys):
    assert run(["certify", "gofA-oracle", "--trials", 5]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counters"]["max_deviation"] <= 1e-3


def test_certify_theorem15(capsys):
    assert run(["certify", "theorem15-window"]) == 0


@pytest.mark.parametrize("argv, stray", [
    (["smallp-p3-t1", "--trials", 5], "--trials"),
    (["smallp-p4-t1", "--seed", 1, "--trials", 5], "--trials, --seed"),
    (["theorem15-window", "--seed", 0], "--seed"),
    (["dominance-axioms", "--trials", 10], "--trials"),
])
def test_certify_rejects_flags_the_suite_ignores(tmp_path, capsys, argv, stray):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        run(["certify", *argv, "--out", out])
    assert exc.value.code == 2
    assert f"certify {argv[0]} takes no {stray}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, -3])
def test_certify_rejects_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        run(["certify", "gofA-oracle", "--trials", trials, "--out", out])
    assert exc.value.code == 2
    assert f"--trials must be at least 1, not {trials}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        run_suite("gofA-oracle", trials=trials)


def test_certify_flags_reach_the_suite(capsys):
    assert run(["certify", "gofA-oracle", "--seed", 3, "--trials", 2]) == 0
    assert json.loads(capsys.readouterr().out)["counters"]["trials"] == 2
    assert run(["certify", "dominance-axioms", "--seed", 4]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    with pytest.raises(TypeError):
        run_suite("theorem15-window", seed=0)


def test_certify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run(["certify", "no-such-suite"])
    assert exc.value.code == 2


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_cbe_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "gen-cbe", "--p", 3, "--ell", 1, "--k", "8,16",
                "--n", "20,30", "--seed", 1, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 cells
    assert lines[0].startswith("p,ell,k,n,")


def test_sweep_mbe_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "gen-mbe", "--ell", "1,2", "--p", 1, "--q", 2,
                "--k", 6, "--m", 4, "--seed", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_sweep_rejects_bad_grid_token(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "gen-cbe", "--p", 3, "--ell", 1, "--k", "8,x", "--n", 20,
             "--seed", 1, "--out", tmp_path / "s.csv"])
    assert exc.value.code == 2
    assert "--k: '8,x'" in capsys.readouterr().err


def _csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


@pytest.mark.parametrize("target, flags, shared", [
    ("gen-cbe", ["--p", 3, "--ell", 1, "--k", 8, "--n", 30, "--seed", 2],
     {"cross_density", "omega", "omega_bound", "bound_satisfied"}),
    ("gen-mbe", ["--ell", 2, "--p", 1, "--q", 2, "--k", 6, "--m", 4, "--seed", 3],
     {"min_pair_density", "max_pair_density", "omega_found", "omega_bound",
      "bound_satisfied"}),
])
def test_sweep_row_matches_gen_csv(tmp_path, target, flags, shared):
    assert run([target, *flags, "--out", tmp_path / "g"]) == 0
    assert run(["sweep", target, *flags, "--out", tmp_path / "s.csv"]) == 0
    [gen] = _csv_rows(tmp_path / "g.csv")
    [row] = _csv_rows(tmp_path / "s.csv")
    # n names the per-class size in a CBE sweep and the vertex count in gen-*
    assert set(gen) & set(row) - {"n"} == shared
    assert {c: row[c] for c in shared} == {c: gen[c] for c in shared}


@pytest.mark.parametrize("target, flags, stray", [
    ("gen-cbe", ["--p", 3, "--ell", 1, "--k", 8, "--n", 20, "--seed", 1,
                 "--m", 99, "--q", 7, "--t", 3], "--q, --m, --t"),
    ("gen-mbe", ["--ell", 1, "--p", 1, "--q", 2, "--k", 6, "--m", 4, "--seed", 3,
                 "--n", 5, "--big-k", 3], "--n, --big-k"),
])
def test_sweep_rejects_axes_the_target_ignores(tmp_path, capsys, target, flags,
                                               stray):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["sweep", target, *flags, "--out", out])
    assert exc.value.code == 2
    assert f"sweep {target} takes no {stray}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_params(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "gen-cbe", "--p", 3, "--out", tmp_path / "s.csv"])
    assert exc.value.code == 2
