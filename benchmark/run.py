"""The tdforge benchmark: one workload, one run, one JSON line.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a tdforge checkout; the program is imported from
``src/``. The workload runs in a fresh worker process (worker.py) for S
seconds of whole rounds, and the last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s and peak_rss_mb. setup_s
is the median, over the worker and SETUP_PROBES extra processes that stop
after set-up, of the time from process launch to ``ready``: interpreter
start, imports and building the workload's inputs. With
--trace 1 they are the per-layer metrics, and the spans are written to
benchmark/results/. CLI outputs go to a work directory under
benchmark/results/ that is removed when the run ends. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# Seconds a whole run may take before its worker is killed. pipeline-k2 is
# a reference workload, run by hand for the README's figures.
RUN_LIMITS_S = {"pipeline-k1": 170, "decide-unsat": 170, "decide-sat": 170,
                "certify-sampled": 170, "pipeline-k2": 600}
SETUP_PROBES = 10


class WorkerFailed(Exception):
    pass


def run_worker(args, workdir: str, deadline: float, setup_only: bool):
    """Start worker.py; return (seconds to ``ready``, its last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-out", os.path.join(
               RESULTS, f"trace-{args.workload}-seed{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return ready, last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RUN_LIMITS_S)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "tdforge", "cli.py")):
        print(f"error: no tdforge sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMITS_S[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        # Half the set-up probes run before the worker and half after, so
        # that a burst of load from other processes skews fewer of them.
        setups = []
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes // 2):
            setups.append(run_worker(args, workdir, deadline, True)[0])
        ready, last = run_worker(args, workdir, deadline, False)
        setups.append(ready)
        for _ in range(probes - probes // 2):
            setups.append(run_worker(args, workdir, deadline, True)[0])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(last)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
