"""Benchmark of freepoisson: one workload, one seed, one run.

    python3 bench/run.py --workload search|decide|quantize|fpa \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository; the package is imported from
./src.  The run builds one round of operations from the seed, repeats the
round in a closed loop (one operation at a time) until S seconds have
passed, checks every output, and prints one JSON object as its last line
of standard output.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the public functions are wrapped and the metrics are the
per-layer ones, per operation.  Details go to bench/out/.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("search", "decide", "quantize", "fpa")
# Fresh interpreters whose set-up times give the median setup_s; this
# process is one of them.
SETUP_SAMPLES = 5
# Workloads with fewer operations per run report no 90th percentile.
P90_MIN_OPS = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put ./src first on the path; fail unless the package is there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "freepoisson", "__init__.py")):
        raise SystemExit("error: ./src/freepoisson not found; run from the repository root")
    sys.path.insert(0, src)
    import freepoisson

    if not os.path.abspath(freepoisson.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: freepoisson imported from {freepoisson.__file__}, not ./src")


def fresh_setups(args, count):
    """Set-up times of `count` fresh interpreters, run one after another."""
    out = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--setup-only"]
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Failed:
    """Stands for the output of an operation that raised."""

    def __init__(self, reason):
        self.reason = reason

    def __eq__(self, other):
        return isinstance(other, Failed) and other.reason == self.reason


def timed_loop(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed; returns what was measured."""
    ops = workload.ops
    latencies = []
    round_rates = []
    first = None
    mismatched = set()
    rounds = 0
    start = time.perf_counter()
    while True:
        outs = []
        for i, op in enumerate(ops):
            t = time.perf_counter()
            try:
                out = tracer.run_op(i, op.run) if tracer else op.run()
            except Exception as exc:  # counted as a failed operation
                out = Failed(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
            outs.append(out)
        if first is None:
            first = outs
        else:
            mismatched.update(i for i, (a, b) in enumerate(zip(first, outs)) if a != b)
        rounds += 1
        round_rates.append(len(ops) / sum(latencies[-len(ops) :]))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    if workload.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = workload.child_peak_kib
    return latencies, round_rates, first, mismatched, rounds, wall, peak_kib


def check_outputs(workload, first, mismatched, rounds):
    """(failed executions, reasons of wrong outputs) for the whole run."""
    failed = 0
    wrong = []
    for i, (op, out) in enumerate(zip(workload.ops, first)):
        if isinstance(out, Failed):
            failed += rounds
            print(f"op {i} ({op.kind}) failed: {out.reason}", file=sys.stderr)
            continue
        reason = op.check(out)
        if reason is None and i in mismatched:
            reason = "output changed between rounds"
        if reason is not None:
            wrong.append(f"op {i} ({op.kind}): {reason}")
    return failed, wrong


def fpa_layer_totals(trace_dir):
    """Sum the per-layer totals that the traced fpa children wrote."""
    totals = {}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            head = json.loads(fh.readline())
        for key, value in head["totals"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def main(argv):
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = None
    if args.trace:
        import spans

        if workload.in_process:
            tracer = spans.Tracer()
            spans.install(tracer)
            tracer.active = True
        else:
            workload.trace_dir = os.path.join(OUT_DIR, f"trace-{tag}")
            os.makedirs(workload.trace_dir, exist_ok=True)
            for name in os.listdir(workload.trace_dir):
                os.remove(os.path.join(workload.trace_dir, name))
        setup_samples = [setup_s]
    else:
        setup_samples = [setup_s] + fresh_setups(args, SETUP_SAMPLES - 1)

    latencies, round_rates, first, mismatched, rounds, wall, peak_kib = timed_loop(workload, args.seconds, tracer)
    if tracer:
        tracer.active = False
    check_start = time.perf_counter()
    failed, wrong = check_outputs(workload, first, mismatched, rounds)
    check_s = time.perf_counter() - check_start
    attempted = len(latencies)
    busy = sum(latencies)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "wall_s": wall,
        "busy_s": busy,
        "check_s": check_s,
        "setup_samples_s": setup_samples,
        "op_median_ms": [
            [op.kind, 1000 * statistics.median(latencies[i :: len(workload.ops)])]
            for i, op in enumerate(workload.ops)
        ],
        "wrong": wrong,
    }
    if args.trace:
        if tracer:
            totals = tracer.layer_totals()
            self_sum = tracer.self_sum()
        else:
            totals = fpa_layer_totals(workload.trace_dir)
            self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s") or k == "fpa.import_s")
        if self_sum > wall:
            wrong.append(f"summed self time {self_sum} exceeds traced wall time {wall}")
        detail.update(self_sum_s=self_sum, ops_per_s=attempted / busy)
        if tracer:
            tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.jsonl"), detail)
        metrics = {
            name: {"value": totals.get(name, 0) / attempted, "unit": unit} for name, unit in spans.layer_names()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": statistics.median(round_rates), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
        if attempted >= P90_MIN_OPS:
            detail["latency_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    for line in wrong:
        print("wrong output: " + line, file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail["result"] = result
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    keys = ("rounds", "ops_per_round", "wall_s", "busy_s", "latency_p90_ms", "self_sum_s")
    print(json.dumps({k: detail[k] for k in keys if k in detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
