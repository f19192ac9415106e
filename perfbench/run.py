"""prunelab benchmark: run from the repository root.

    python3 perfbench/run.py --workload default --seed 1 --seconds 20 --trace 0

Starts fresh worker processes (perfbench/child.py) one at a time, each with
BLAS and OpenMP pinned to one thread and prunelab imported from ./src:
with --trace 0 first SETUP_PROBES set-up-only processes, then whole rounds
until --seconds have passed (at least MIN_ROUNDS). With --trace 0 it reports
the medians of the end-to-end metrics; with --trace 1 every round (at least
one) is run twice, untraced and traced, and it reports the per-layer metrics
of the traced rounds.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 5
MIN_ROUNDS = 2           # the artifact-hash check needs two runs of one seed
TIME_LIMIT_S = 165.0     # the whole run must end within 180 s
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "infer_images_per_s": "images/s", "dense_infer_images_per_s": "images/s"}


class ChildError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(mode: str, workload: str, seed: int, out_dir: Path, trace_file: Path | None,
              deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(CHILD), repr(now()), mode, workload, str(seed), str(out_dir)]
    if trace_file:
        cmd.append(str(trace_file))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process did not finish in time") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median_metrics(rounds: list[dict], units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        values = [r[name] for r in rounds if name in r]
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "prunelab" / "__init__.py").is_file():
        print(f"error: no prunelab sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    import checks

    start = now()
    hard_deadline = start + TIME_LIMIT_S
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = OUT / "runs" / tag

    def child(mode: str, k: int) -> dict:
        trace_file = OUT / "trace" / f"{tag}-r{k}.json" if mode == "trace" else None
        return run_child(mode, args.workload, args.seed, work / f"{mode}{k}", trace_file, hard_deadline)

    try:
        setups = [child("setup", k)["setup_s"] for k in range(0 if args.trace else SETUP_PROBES)]
        untraced, traced = [], []
        longest = 0.0
        while True:
            t = now()
            k = len(untraced)
            untraced.append(child("run", k))
            if args.trace:
                traced.append(child("trace", k))
            longest = max(longest, now() - t)
            done = len(untraced) >= (1 if args.trace else MIN_ROUNDS) and now() - start >= args.seconds
            if done or now() + longest > hard_deadline:
                break
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = untraced + traced
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    hashes = [r["hashes"] for r in rounds if "hashes" in r]
    for f in checks.check_same_hashes(hashes):  # each mismatch is one failed run_experiment
        failures.append(f)
        failed += 1
    if args.trace:
        units = {name: unit for r in traced for name, (_, unit) in r["layers"].items()}
        metrics = median_metrics([{n: v for n, (v, _) in r["layers"].items()} for r in traced], units)
        overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = median_metrics(untraced, END_TO_END)
        rss = [r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r]
        if rss:  # RSS settles at one of a few levels per process even for one seed,
            # so report the highest level any of the run's processes reached
            metrics["peak_rss_mb"]["value"] = max(rss)
        metrics["setup_s"] = {"value": statistics.median(setups + [r["setup_s"] for r in rounds]), "unit": "s"}
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; set-up samples: {len(setups) + len(rounds)}")
    print(json.dumps({"correct": not failures, "attempted": sum(r["attempted"] for r in rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
