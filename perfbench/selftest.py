"""Self-test of the benchmark, at reduced sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  1. every workload emits every metric BENCHMARK.json names, untraced and
     traced, with no failed command and with the stored references in use;
  2. corrupting one edge line of a generated .edges file before analyze
     reads it fails the analyze command, so fail_frac > 0.
Exits 1 if any check fails.
"""

import os
import shutil
import sys

import run


def check_metrics(spec, problems):
    for workload in run.WORKLOADS:
        for trace in (False, True):
            rec = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, smoke=True)
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            missing = wanted - set(run.emitted(rec, spec))
            label = f"{workload} trace={int(trace)}"
            if missing:
                problems.append(f"{label}: missing metrics {sorted(missing)}")
            if rec["failed"]:
                problems.append(f"{label}: {rec['failed']} failed commands: {rec['failures']}")
            if not rec["referenced"]:
                problems.append(f"{label}: no stored reference")
            print(f"{label}: {len(wanted) - len(missing)}/{len(wanted)} metrics, "
                  f"fail_frac {rec['fail_frac']}")


def check_corruption(problems):
    """Generate the graph, replace one edge line with a copy of another, then
    analyze the corrupted file; the analyze verdict must fail."""
    workload, seed = "cbe-gen-analyze", run.DEFAULT_SEED
    cmds = run.commands(workload, seed, smoke=True)
    generated, outdir = run.execute({"trace": False, "commands": cmds[:1]})
    try:
        path = os.path.join(outdir, "cbe.edges")
        with open(path) as fh:
            lines = fh.readlines()
        i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        lines[i] = lines[i + 1]
        with open(path, "w") as fh:
            fh.writelines(lines)
        analyzed, _ = run.execute({"trace": False, "commands": cmds[1:]},
                                  outdir=outdir)
        result = None
        if generated is not None and analyzed is not None:
            result = dict(generated, commands=generated["commands"] + analyzed["commands"])
        verdicts = run.gate(result, cmds, outdir,
                            run.load_refs("smoke", workload, seed))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    fail_frac = sum(v is not None for v in verdicts) / len(cmds)
    print(f"corrupted edge line: fail_frac {fail_frac} ({verdicts})")
    if verdicts[1] is None:
        problems.append("analyze read a corrupted edge list and passed the gate")
    if not fail_frac > 0:
        problems.append("a corrupted edge line was not caught")


def main() -> int:
    spec = run.load_spec()
    problems = []
    check_metrics(spec, problems)
    check_corruption(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
