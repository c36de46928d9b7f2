#!/usr/bin/env python3
"""Repository benchmark runner.

Run one workload (builds the benchmark from source on first use):

    python3 perfbench/run.py --workload serve_poisson --seed 1 --seconds 10 --trace 0

Run every workload in BENCHMARK.json, one process each:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Diff two result sets (directories of result JSON files written by runs,
into .bench_results/ unless --results names another directory):

    python3 perfbench/run.py compare <dir_a> <dir_b>

Every run prints the metric table, then as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics named in BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The full result (host fingerprint, effective configs,
every metric with unit, domain and sample count, checks) is written to
.bench_results/<workload>-seed<n>-trace<t>.json. Exit status is nonzero when
a correctness check fails or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
DEFAULT_RESULTS = ".bench_results"
RUN_TIMEOUT_S = 170

# Bounds compare mode applies to the host speed metrics BENCHMARK.json does
# not gate. On the 4-vCPU VM the benchmark was built on, their quartile
# spread over ten seeded runs was 15-68%, and the ten-run medians of two sets
# of the same code, taken 15 minutes apart, differed by up to 28%: machine
# noise, which identical passes inside one process showed too. So a single
# unpaired comparison is only judged against a wide bound; a speed claim needs
# alternating parent/change pairs. Simulated metrics must match exactly.
HOST_BOUNDS = {
    "host_tokens_per_s": {"better": "higher", "bound": 0.4},
    "host_instances_per_s": {"better": "higher", "bound": 0.4},
    "host_step_ms_p50": {"better": "lower", "bound": 0.4},
    "host_step_ms_p99": {"better": "lower", "bound": 0.4},
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no source tree beside perfbench/ (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, *gen])
    steps.append(["cmake", "--build", out, "--target", "topick_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(out, "topick_bench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain checkout: source_digest() identifies it
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the files the benchmark builds from, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, results_dir, workload, seed, seconds, trace):
    """Runs one workload; prints its table; returns (exit code, result dict)."""
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = os.path.join(results_dir, stem + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out, "--commit", git_commit()]
    if trace:
        cmd += ["--spans", os.path.join(results_dir, stem + ".spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if not os.path.isfile(out):
        fail(f"{workload} wrote no result (exit {proc.returncode})", 1)
    with open(out) as f:
        result = json.load(f)
    result["source_digest"] = source_digest()
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return proc.returncode, result


def contract_line(spec, result, trace):
    """The run's last stdout line: BENCHMARK.json's metric set, as measured."""
    section = "per_layer" if trace else "end_to_end"
    measured = result[section]
    metrics = {}
    for m in spec[section]:
        if m["name"] not in measured:
            fail(f"{result['workload']} did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            fail(f"unknown workload {w!r}; choose from {', '.join(names)} or all")
    binary = build()
    results_dir = os.path.join(ROOT, args.results)
    worst = 0
    lines = []
    for w in workloads:
        code, result = run_workload(binary, results_dir, w, args.seed, args.seconds,
                                    args.trace)
        line = contract_line(spec, result, args.trace)
        if code != 0 or not line["correct"]:
            worst = 1
        lines.append((w, line))
        print()
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "workloads": {w: l for w, l in lines},
        }))
    return worst


# ---- compare mode -----------------------------------------------------------


def load_results(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, n) for n in sorted(os.listdir(path))
        if n.endswith(".json") and not n.endswith(".spans.json")
    ]
    results = {}
    for name in files:
        with open(name) as f:
            r = json.load(f)
        if "schema" in r:
            results[(r["workload"], int(r["trace"]), int(r["seed"]))] = r
    return results


def quartile_spread(values):
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def cmd_compare(args):
    spec = load_spec()
    bounds = dict(HOST_BOUNDS)
    bounds.update({m["name"]: m for m in spec["end_to_end"]})
    a, b = load_results(args.a), load_results(args.b)
    problems = 0
    groups = sorted({(w, t) for (w, t, _) in a} & {(w, t) for (w, t, _) in b})
    if not groups:
        fail("no workload/trace pair present in both result sets")
    for workload, trace in groups:
        seeds_a = sorted(s for (w, t, s) in a if (w, t) == (workload, trace))
        seeds_b = sorted(s for (w, t, s) in b if (w, t) == (workload, trace))
        print(f"== {workload} trace={trace}: seeds A {seeds_a} B {seeds_b}")
        for s in sorted(set(seeds_a) & set(seeds_b)):
            ra, rb = a[(workload, trace, s)], b[(workload, trace, s)]
            for section in ("end_to_end", "per_layer"):
                for name, ma in ra[section].items():
                    mb = rb[section].get(name)
                    if ma["domain"] != "sim":
                        continue
                    if mb is None or mb["value"] != ma["value"]:
                        problems += 1
                        got = None if mb is None else mb["value"]
                        print(f"  SIM MISMATCH seed {s} {name}: {ma['value']} vs {got}")
            if not (ra["correct"] and rb["correct"]):
                problems += 1
                print(f"  INCORRECT run at seed {s}")
        section = "per_layer" if trace else "end_to_end"
        names = list(a[(workload, trace, seeds_a[0])][section])
        print(f"  {'metric':34s} {'median A':>13s} {'median B':>13s} {'B vs A':>8s} "
              f"{'bound':>6s} {'IQR A':>7s} {'IQR B':>7s}")
        for name in names:
            va = [a[(workload, trace, s)][section][name]["value"] for s in seeds_a]
            vb = [b[(workload, trace, s)][section].get(name, {}).get("value")
                  for s in seeds_b]
            if any(v is None for v in vb):
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            gate = bounds.get(name) if not trace else None
            if gate is not None:
                worse = -change if gate["better"] == "higher" else change
                if worse > gate["bound"]:
                    verdict = "REGRESSION"
                    problems += 1
                bound = f"{gate['bound']:.2f}"
            else:
                bound = "-"
            print(f"  {name:34s} {ma:13.6g} {mb:13.6g} {change:+8.2%} {bound:>6s} "
                  f"{quartile_spread(va):7.2%} {quartile_spread(vb):7.2%} {verdict}")
    print(f"compare: {'OK' if problems == 0 else f'{problems} problem(s)'}")
    return 0 if problems == 0 else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return cmd_compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=DEFAULT_RESULTS,
                        help="directory (inside the checkout) for result files")
    return cmd_run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
