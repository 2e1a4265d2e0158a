#!/usr/bin/env python3
"""Records the expected output digest of every workload for a seed range.

    python3 perfbench/record_digests.py --seeds 0-63

Each digest is what one job of the workload produces at the seed (for
tiles_guarded: the unguarded run of its netlist, which the guarded run
must reproduce). run.py passes the recorded digest to every run at that
seed; a run whose outputs differ counts its jobs as failed. Re-record
only when a change is meant to alter simulated results.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
from run import HERE, ROOT, build, load_json  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    binary = build()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    path = os.path.join(HERE, "expected_digests.json")
    table = load_json(path)
    for workload in (w["name"] for w in spec["workloads"]):
        column = table.setdefault(workload, {})
        for seed in range(lo, hi + 1):
            out = subprocess.run([binary, "digest", "--workload", workload, "--seed", str(seed)],
                                 cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            column[str(seed)] = out.stdout.strip()
        table[workload] = dict(sorted(column.items(), key=lambda kv: int(kv[0])))
        print("%s: seeds %d-%d recorded" % (workload, lo, hi))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: table[k] for k in sorted(table)}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
