"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py PARENT --plan search,decide,quantize,fpa:1-6 --plan quantize:7-10

Run it from the root of the repository.  The parent (`git archive PARENT`)
and a copy of the working tree (its tracked and untracked files that git
does not ignore) are unpacked into their own temporary directories (set
TMPDIR to choose where), and the benchmark command of BENCHMARK.json runs
there as `--workload W --seed N --seconds S --trace 0`, one run at a time,
with S the `run_seconds` of BENCHMARK.json.
Each plan is WORKLOADS:SEEDS; plans run in the order given, seeds in
order, and for each seed the workloads in the order given.  Within a pair
the parent runs first on odd seeds and the change first on even seeds, as
bench/README.md asks.

Prints one JSON object: the parent commit; the change (HEAD, and whether
the working tree differs from it); the machine (platform, CPU count and
the version of the Python that runs this script); the protocol; and for
every workload its seeds, each side's median
of every end-to-end metric, the distance between the first and third
quartile over the median, the pairs in which the change is better (ties
count for neither side), the metrics left unresolved because the spread of
either side is wider than the metric's bound in BENCHMARK.json, and the
raw runs.  Nothing in the repository is written.

With --claim METRIC:WORKLOAD the object also has a "claim" field: the
metric and workload, the pairs the change won out of the pairs run, the
difference of the medians (positive when the change is better), the
distance between the quartiles of the parent's runs, and whether the
claim holds: at least ten pairs, the change better in at least nine
tenths of them (ties counting for neither side), and a median difference
greater than that quartile distance.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile


def parse_plan(text):
    """'search,quantize:1-3,5' -> (['search', 'quantize'], [1, 2, 3, 5])."""
    names, _, seeds = text.rpartition(":")
    if not names or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOADS:SEEDS, got {text!r}")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return names.split(","), out


def parse_claim(text):
    """'ops_per_s:fpa' -> ('ops_per_s', 'fpa')."""
    metric, _, workload = text.partition(":")
    if not metric or not workload:
        raise argparse.ArgumentTypeError(f"expected METRIC:WORKLOAD, got {text!r}")
    return metric, workload


def unpack_parent(rev, path):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)


def copy_working_tree(path):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], check=True, capture_output=True
    ).stdout
    for name in sorted(set(os.fsdecode(n) for n in listed.split(b"\0") if n)):
        if os.path.isfile(name):
            os.makedirs(os.path.join(path, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(path, name))


def run_once(command, cwd, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} in {cwd} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return round((q3 - q1) / statistics.median(values), 3)


def summarize(seeds, results, metrics):
    sides = ("parent", "change")
    runs = {
        side: {m["name"]: [round(r["metrics"][m["name"]]["value"], 4) for r in results[side]] for m in metrics}
        for side in sides
    }
    for side in sides:
        runs[side]["correct"] = all(r["correct"] for r in results[side])
        runs[side]["failed"] = sum(r["failed"] for r in results[side])
    spreads = {side: {m["name"]: spread(runs[side][m["name"]]) for m in metrics} for side in sides}
    better = {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        pairs = zip(runs["parent"][m["name"]], runs["change"][m["name"]])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        better[m["name"]] = f"{wins} of {len(seeds)}"
    return {
        "seeds": seeds,
        "median": {side: {m["name"]: round(statistics.median(runs[side][m["name"]]), 4) for m in metrics} for side in sides},
        "quartile_distance_over_median": spreads,
        "change_better_pairs": better,
        "unresolved": [
            m["name"]
            for m in metrics
            if any(spreads[side][m["name"]] is None or spreads[side][m["name"]] > m["bound"] for side in sides)
        ],
        "runs": runs,
    }


def claim(metric, workload, parent_runs, change_runs):
    """The verdict on a claimed gain in `metric` on `workload`."""
    sign = 1 if metric["better"] == "higher" else -1
    pairs = len(parent_runs)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    difference = sign * (statistics.median(change_runs) - statistics.median(parent_runs))
    q1, _, q3 = statistics.quantiles(parent_runs, n=4) if pairs > 1 else (0, 0, 0)
    return {
        "metric": metric["name"],
        "workload": workload,
        "pairs_won": f"{wins} of {pairs}",
        "median_difference": round(difference, 4),
        "parent_quartile_distance": round(q3 - q1, 4),
        "holds": pairs >= 10 and wins >= 0.9 * pairs and difference > q3 - q1,
    }


def main(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("--plan", type=parse_plan, action="append", required=True, help="WORKLOADS:SEEDS, e.g. quantize,fpa:1-6")
    p.add_argument("--claim", type=parse_claim, help="METRIC:WORKLOAD of a claimed gain, e.g. ops_per_s:fpa")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    if args.claim:
        claimed = next((m for m in metrics if m["name"] == args.claim[0]), None)
        if claimed is None:
            p.error(f"--claim: {args.claim[0]!r} is not an end-to-end metric of BENCHMARK.json")
        if not any(args.claim[1] in workloads for workloads, _ in args.plan):
            p.error(f"--claim: no plan runs the workload {args.claim[1]!r}")
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], check=True, capture_output=True, text=True)
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], check=True, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain"], check=True, capture_output=True, text=True)

    seeds, results = {}, {}
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        unpack_parent(args.parent, parent_dir)
        copy_working_tree(change_dir)
        dirs = {"parent": parent_dir, "change": change_dir}
        for workloads, plan_seeds in args.plan:
            for seed in plan_seeds:
                for workload in workloads:
                    seeds.setdefault(workload, []).append(seed)
                    order = ("parent", "change") if seed % 2 else ("change", "parent")
                    for side in order:
                        print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                        result = run_once(bench["command"], dirs[side], workload, seed, seconds)
                        results.setdefault(workload, {"parent": [], "change": []})[side].append(result)

    out = {
        "parent_commit": parent.stdout.strip(),
        "change": {"head": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "protocol": (
            f"one run of {seconds:g} s per side and seed, parent and change unpacked into their own directories; "
            "the parent runs first on odd seeds and the change first on even seeds"
        ),
        "command": " ".join(bench["command"]) + f" --workload W --seed N --seconds {seconds:g} --trace 0",
        "workloads": {w: summarize(seeds[w], results[w], metrics) for w in seeds},
    }
    if args.claim:
        name, workload = args.claim
        runs = out["workloads"][workload]["runs"]
        out["claim"] = claim(claimed, workload, runs["parent"][name], runs["change"][name])
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
