"""Record the correctness-gate references in perfbench/refs.json.

    python3 perfbench/record_refs.py

For the default seed and the held-out seed, runs every workload once, at
full and at smoke size, and stores what the gate compares.  Only run it on
a commit whose outputs are known to be right: a later run is judged against
what this stores.
"""

import json
import sys

import run


def main() -> int:
    refs = {}
    for size in ("full", "smoke"):
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                cmds = run.commands(workload, seed, smoke=size == "smoke")
                result, verdicts = run.iterate({"trace": False}, cmds, None)
                bad = [v for v in verdicts if v is not None]
                if bad:
                    print(f"{size} {workload} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                refs.setdefault(size, {}).setdefault(workload, {})[str(seed)] = [
                    {k: v for k, v in c["observed"].items() if k != "max_deviation"}
                    for c in result["commands"]]
                print(f"{size} {workload} seed {seed}: recorded")
    with open(run.REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
