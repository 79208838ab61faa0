"""One run of one workload, in a process of its own; run.py starts it.

Prints ``ready`` once the interpreter has started, tdforge is imported and
the workload's inputs are built, then (unless --setup-only) repeats rounds
of the same operations for --seconds and prints one JSON line: correct,
attempted, failed and the metrics measured here. Untraced, those are
wall_s (the round's job with each operation at its fastest repeat) and
peak_rss_mb (this process's resident high-water mark, read before the
final output checks). Traced, each untraced round is followed by a round
with the wrappers installed; the per-layer metrics are means over the
traced rounds, and trace.overhead_s is the traced job time minus the
untraced one.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def best_job_seconds(rounds):
    """The round's job timed with each operation at its fastest.

    Every round repeats the same operations on the same inputs. On a shared
    machine, other tenants slow a process down by up to half in bursts; the
    fastest repeat of a short operation is its time between bursts, which
    moves less between runs than a mean or median (see README.md).
    """
    return sum(min(op) for op in zip(*rounds))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tdforge.cli
    import tdforge.constructions
    import tdforge.decomposition
    import tdforge.graphs
    import tdforge.io
    import tdforge.search
    import tdforge.transforms
    import workloads
    td = tdforge
    workload = workloads.WORKLOADS[args.workload](td, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload.prepare_checks()
    problems = []
    attempted = failed = 0
    errors = []
    untraced, traced = [], []

    def one_round(r, times):
        nonlocal attempted, failed
        rnd = workload.run_round()
        attempted += len(rnd.op_seconds)
        failed += rnd.failed
        errors.extend(rnd.errors)
        problems.extend(f"round {r}: {p}" for p in workload.check_round(rnd))
        times.append(rnd.op_seconds)

    if args.trace:
        import spans
        tracer = spans.Tracer()
        patches = spans.patches_for(tracer, {
            "cli": td.cli, "search": td.search,
            "decomposition": td.decomposition, "transforms": td.transforms,
            "io": td.io})
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        one_round(r, untraced)
        if args.trace:
            with tracer.installed(patches):
                one_round(r, traced)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems.extend(workload.final_check())

    if args.trace:
        overhead = best_job_seconds(traced) - best_job_seconds(untraced)
        layers = spans.layer_metrics(tracer.spans, len(traced), overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": untraced, "traced_round_s": traced})
    else:
        metrics = {
            "wall_s": {"value": best_job_seconds(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for text in (problems + errors)[:20]:
        print(text, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
