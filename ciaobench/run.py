#!/usr/bin/env python3
"""Run one workload of the CIAO benchmark and print its result.

    python3 ciaobench/run.py --workload pushdown --seed 1 --seconds 10 --trace 0

Builds the benchmark (this directory's sbt project, which compiles the
repository's src/main with it) when its sources changed, runs it in one JVM,
and prints its report. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
without printing a result when the build or the run fails.

    python3 ciaobench/run.py --fit-coeffs

refits the pinned cost-model coefficients and rewrites coeffs.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
CLASSES = HERE / "target" / "scala-2.13" / "classes"
STAMP = HERE / "target" / "ciaobench.stamp"
COEFFS = HERE / "coeffs.json"
WORKLOADS = ("ingest", "pushdown", "adhoc")
HEAP = "3g"
BUILD_LIMIT_S = 840
RUN_LIMIT_S = 175


def fail(msg):
    print(f"ciaobench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for top in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_bounded(cmd, limit_s, **kw):
    """Run cmd in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {limit_s} s")
    return proc.returncode, out


def build(digest):
    if STAMP.is_file() and STAMP.read_text() == digest and CLASSES.is_dir():
        return
    code, _ = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "compile", "Compile/copyResources"],
        BUILD_LIMIT_S, cwd=HERE, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0:
        fail(f"build failed with exit code {code}")
    STAMP.write_text(digest)


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def java_cmd(run_dir, main, args):
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home:
        fail("SPARK_HOME is not set")
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(CLASSES), str(Path(spark_home) / "jars" / "*")])
    return ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-cp", cp, main] + args


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    ok = (isinstance(res, dict) and set(res) == {"correct", "attempted", "failed", "metrics"}
          and isinstance(res["attempted"], int) and res["attempted"] >= 1)
    return res if ok else None


def main():
    ap = argparse.ArgumentParser(description="CIAO benchmark: one workload, one run.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--fit-coeffs", action="store_true")
    a = ap.parse_args()
    if not a.fit_coeffs and (a.workload is None or a.seed is None or a.seconds is None or a.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.fit_coeffs and a.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}; run from a full checkout")

    digest = source_digest()
    build(digest)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if a.fit_coeffs:
            code, out = run_bounded(java_cmd(run_dir, "repro.ciaobench.FitCoeffs", []), RUN_LIMIT_S,
                                    cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
            if code != 0:
                fail(f"coefficient fit failed with exit code {code}")
            COEFFS.write_text(out)
            print(out, end="")
            return
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--work", str(run_dir), "--coeffs", str(COEFFS),
                "--commit", git_commit(), "--source-digest", digest]
        started = time.monotonic()
        code, out = run_bounded(java_cmd(run_dir, "repro.ciaobench.Main", args), RUN_LIMIT_S,
                                cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        lines = [l for l in out.splitlines() if l.strip()]
        res = result_of(lines)
        if code != 0 or res is None:
            sys.stderr.write(out)
            fail(f"run failed (exit code {code}) or printed no result")
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{a.workload}-seed{a.seed}-trace{a.trace}"
        (results / f"{stem}.txt").write_text(out)
        if (run_dir / "spans.jsonl").is_file():
            shutil.copy(run_dir / "spans.jsonl", results / f"{stem}.spans.jsonl")
        print("\n".join(lines[:-1]))
        print(f"wall_s {time.monotonic() - started:.3f}")
        print(lines[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
