#!/usr/bin/env python3
"""Print every CIAO benchmark metric by name and check the counts.

    python3 ciaobench/report.py [--seed 1] [--seconds 10] [--workloads ingest,adhoc]

For each workload it runs run.py once untraced and twice traced with the same
seed, prints every end-to-end and per-layer metric with its unit and the run
metadata, and checks that
  - every run is correct (all query counts equal the ground truth, no client
    false negative, the same pushed set from every set-up);
  - the exact counters and the pushed-set digest are identical across the
    runs with the seed held fixed.
Exits 1 if a check fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Counts that must repeat exactly for a fixed seed.
EXACT = ["core.n_selected", "server.loaded_ratio", "server.files_written", "server.store_bytes",
         "datasource.partitions", "datasource.rows_decoded", "datasource.rows_after_bits_frac",
         "datasource.raw_rows_parsed", "spark.tasks", "client.false_negatives"]


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, cwd=HERE.parent)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit(f"{workload} trace={trace}: run failed")
    lines = out.stdout.strip().splitlines()
    meta = next(json.loads(l)["meta"] for l in lines if l.startswith('{"meta"'))
    return json.loads(lines[-1]), meta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default="ingest,adhoc")
    a = ap.parse_args()
    problems = []
    for w in a.workloads.split(","):
        untraced, meta0 = run(w, a.seed, a.seconds, 0)
        traced = [run(w, a.seed, a.seconds, 1) for _ in range(2)]
        print(f"== {w} (seed {a.seed})")
        for name, m in list(untraced["metrics"].items()) + list(traced[0][0]["metrics"].items()):
            print(f"  {name:38s} {m['value']:>18.6f} {m['unit']}")
        print("  meta " + json.dumps(meta0))
        for res, _ in [(untraced, meta0)] + traced:
            if not res["correct"] or res["failed"]:
                problems.append(f"{w}: incorrect run ({res['failed']} of {res['attempted']} queries mismatched)")
        digests = {meta0["pushed_digest"]} | {m["pushed_digest"] for _, m in traced}
        if len(digests) != 1:
            problems.append(f"{w}: pushed-set digest differs across runs: {sorted(digests)}")
        for name in EXACT:
            vals = [r["metrics"][name]["value"] for r, _ in traced]
            if vals[0] != vals[1]:
                problems.append(f"{w}: {name} differs across runs: {vals}")
    for p in problems:
        print("FAIL " + p)
    print("all checks passed" if not problems else f"{len(problems)} check(s) failed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
