"""quivergrass benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload {elliptic,flags,exact} --seed N \
                             --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  Each
workload runs in its own fresh interpreter (``worker.py``) with the library's
``src`` on PYTHONPATH and every numeric thread pool limited to one thread.
Set-up time is the median over SETUP_RUNS set-up-only interpreters and the
measuring one.  Every metric is printed by name with its unit; the last line
of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones.  The exit code is 0 only when a result was
printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
DEADLINE_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "query_p50_ms": "ms", "query_p90_ms": "ms"}


def _environment():
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker(args, deadline, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, cwd=ROOT, env=_environment(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("elliptic", "flags", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quivergrass", "cli.py")):
        sys.exit(f"error: no quivergrass sources under {os.path.join(ROOT, 'src')}; "
                 "run from the root of a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        out = _worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as ex:
        sys.exit(f"error: {ex}")
    setups.append(out["setup_s"])

    if args.trace:
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in out["units"].items()}
    else:
        values = dict(out["metrics"], peak_rss_mb=out["peak_rss_mb"],
                      setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{out['queries']} queries, {out['passes']} passes, "
          f"{out['attempted']} answers checked, {len(out['failures'])} wrong")
    if out.get("scale", 1.0) != 1.0:
        print(f"  times in reference seconds: measured times x {out['scale']:.4f} "
              "(median over passes of the reference loop's speed)")
    for argv, why in out["failures"]:
        print(f"  FAILED {argv}: {why}")
    for argv, why in out["known_defects"]:
        print(f"  known defect still reproduces: {argv}: {why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not out["failures"], "attempted": out["attempted"],
                      "failed": len(out["failures"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
