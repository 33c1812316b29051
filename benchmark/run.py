#!/usr/bin/env python3
"""The repository benchmark: builds rapid_perf, runs its workloads, checks
their outputs and reports the metrics BENCHMARK.json declares.

One measurement (the last stdout line is one JSON result):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The whole suite (every workload --runs times, each in a fresh process,
workload order rotated between repetitions; a table on stdout and
build-benchmark/results.json):

    python3 benchmark/run.py [--runs 1] [--seconds S] [--trace]

--seconds defaults to BENCHMARK.json's run_seconds in both modes, so the
suite follows the protocol the bounds were set on. One repetition of the
five workloads takes about 100 s; --runs defaults to 1 to stay within three
minutes.

Exits non-zero on any failed check. Builds into build-benchmark/ from the
sources next to this file; see benchmark/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "rapid_perf")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 20070623  # ScenarioConfig's default seed, which the registry keeps
PERF_TIMEOUT_S = 170

# Exact outputs for DEFAULT_SEED (rapid_perf's "check" record). Counts are
# summed and CRC32s chained over every simulation of the workload in order;
# serve-powerlaw's are the straight run's plus the CRC of every query answer.
EXPECTED = {
    "powerlaw-sat": {
        "packets": 5928, "meetings": 30797, "delivered": 247, "drops": 3580,
        "avg_delay_crc": "0xf3fc06fe", "delivery_crc": "0x116edb7d",
        "result_crc": "0xaa1a46a9",
    },
    "powerlaw-light": {
        "packets": 497, "meetings": 30797, "delivered": 39, "drops": 0,
        "avg_delay_crc": "0x945b378e", "delivery_crc": "0xd96ae5b9",
        "result_crc": "0xcfec920b",
    },
    "powerlaw-epidemic": {
        "packets": 5928, "meetings": 30797, "delivered": 548, "drops": 2527193,
        "avg_delay_crc": "0x2b4ad80c", "delivery_crc": "0xd4317466",
        "result_crc": "0xcb4087dc",
    },
    "trace-sweep": {
        "packets": 1746640, "meetings": 24864, "delivered": 866095, "drops": 0,
        "avg_delay_crc": "0xa6b0be98", "delivery_crc": "0xe73c85e3",
        "result_crc": "0xeacb7bc0",
    },
    "serve-powerlaw": {
        "packets": 11901, "meetings": 2485, "delivered": 344, "drops": 31619,
        "avg_delay_crc": "0xe9a6d658", "delivery_crc": "0x0d13bd79",
        "result_crc": "0xf4386028", "answers_crc": "0xc90ab6ff",
    },
}


class BenchError(Exception):
    pass


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def check_tracked():
    """BENCHMARK.json must be committed, not merely present: the root
    .gitignore's *.json rule has hidden files before. Checked only in a git
    checkout; an exported source tree has nothing to check against."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return
    tracked = subprocess.run(["git", "-C", ROOT, "ls-files", "--error-unmatch",
                              "BENCHMARK.json"], capture_output=True, text=True)
    if tracked.returncode != 0:
        raise BenchError("BENCHMARK.json is not tracked by git (git add -f BENCHMARK.json)")


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no repository sources next to {HERE}; nothing to build")
    tmp = os.path.join(BUILD, "tmp")  # compiler scratch stays inside the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "rapid_perf", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_perf(workload, seed, seconds, trace):
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", work]
    if trace:
        cmd += ["--trace", "--trace-out", os.path.join(BUILD, workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PERF_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: rapid_perf did not finish in {PERF_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: rapid_perf exited {proc.returncode} without a record")
    return json.loads(lines[-1])


def gate(record):
    """Failed checks of one record: rapid_perf's own identity and invariant
    checks, plus the pinned outputs when the seed is the default one."""
    workload = record["workload"]
    failures = [f"{workload}: {f}" for f in record["failures"]]
    if record["seed"] == DEFAULT_SEED:
        for key, expected in EXPECTED[workload].items():
            actual = record["check"].get(key)
            if actual != expected:
                failures.append(f"{workload}: {key} expected {expected} actual {actual}")
    return failures


def result_line(record, spec, trace):
    failures = gate(record)
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = record["layers"] if trace else record["metrics"]
    metrics = {}
    for m in declared:
        if m["name"] not in source:
            raise BenchError(f"{record['workload']}: rapid_perf did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    attempted = max(1, record["attempted"])
    failed = min(attempted, len(failures))
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def spread(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def print_table(title, names_units, records, key):
    print(title)
    for name, unit in names_units:
        values = [r[key][name] for r in records]
        med, q1, q3 = spread(values)
        print(f"  {name:<28} {med:>14.6g} {unit:<12} "
              f"(median, q1 {q1:.6g} – q3 {q3:.6g}, n={len(values)})")


def print_layers(workload, layers, spec):
    wall = layers["bench.traced_wall_s"]
    print(f"{workload} (traced run, wall {wall:.4g} s)")
    for m in spec["per_layer"]:
        value = layers[m["name"]]
        share = ""
        # serve's checkpoints are outside its run wall, so they get no share.
        if (m["name"].endswith(("busy_s", "self_s")) and wall > 0
                and m["name"] != "service.snapshot.busy_s"):
            share = f"{100.0 * value / wall:6.2f}% of wall"
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']:<10} {share}")


def suite(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    records = {w: [] for w in workloads}
    failures = []
    for rep in range(args.runs):
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for w in order:
            record = run_perf(w, args.seed, args.seconds, False)
            records[w].append(record)
            failures += gate(record)
            print(f"[{rep + 1}/{args.runs}] {w}: run_wall_s "
                  f"{record['metrics']['run_wall_s']:.4g}", file=sys.stderr)
    traced = {}
    if args.trace:
        for w in workloads:
            traced[w] = run_perf(w, args.seed, args.seconds, True)
            failures += gate(traced[w])
    names_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    for w in workloads:
        attempted = sum(r["attempted"] for r in records[w])
        failed = sum(len(gate(r)) for r in records[w])
        print_table(f"{w} (seed {args.seed}, --seconds {args.seconds:g})", names_units,
                    records[w], "metrics")
        print(f"  {'failed_ops_ratio':<28} {failed / max(1, attempted):>14.6g} "
              f"{'fraction':<12} ({failed} of {attempted} operations and checks)")
    for w, record in traced.items():
        print_layers(w, record["layers"], spec)
    with open(os.path.join(BUILD, "results.json"), "w") as f:
        json.dump({"seed": args.seed, "runs": records, "traced": traced,
                   "failures": failures}, f, indent=1)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure one workload and print one JSON result")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure whole iterations for this long, at least one "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                        help="report the per-layer split from a traced run")
    parser.add_argument("--runs", type=int, default=1, help="suite mode: runs per workload")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        check_tracked()
        build()
        if args.workload is None:
            return suite(args, spec)
        if args.workload not in EXPECTED:
            raise BenchError(f"unknown workload {args.workload}")
        record = run_perf(args.workload, args.seed, args.seconds, args.trace == 1)
        result = result_line(record, spec, args.trace == 1)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
