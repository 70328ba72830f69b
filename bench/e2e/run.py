#!/usr/bin/env python3
"""costream-bench runner: builds bench/e2e in Release, runs one workload per
process and checks its outputs.

    python3 bench/e2e/run.py --workload NAME --seed N [--seconds 10]
                             [--trace 0|1] [--out DIR] [--smoke]
    python3 bench/e2e/run.py --workload all --seed N ...
    python3 bench/e2e/run.py --compare A.json B.json

Prints every metric as `workload metric value unit`, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json untraced, its per-layer metrics with --trace 1.
Exits 1 when an output check fails, 2 when the benchmark cannot run.

The build goes to $CARGO_TARGET_DIR/costream-bench (default
.bench_build/costream-bench under the repository root). With --out DIR each
run is appended to DIR/results.json and a traced run writes
DIR/spans-<workload>.jsonl. --compare applies BENCHMARK.json's bounds to two
such result files (the first is the baseline). See bench/e2e/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["churn-steady", "crowd-converge", "burst-async", "label-corpus",
             "train-memory", "train-stream"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "costream-bench"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no Costream source tree at {ROOT} (CMakeLists.txt and src/ "
             "are needed to build the benchmark)")
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    with log.open("w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")
    binary = out_dir / "costream_bench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_binary(binary, workload, seed, seconds, trace, smoke, out):
    scratch = build_dir() / "scratch" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(scratch)]
    if trace:
        cmd.append("--trace")
        if out is not None:
            cmd += ["--spans", str(out / f"spans-{workload}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: costream_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_digest(run, binary):
    """Decisions are a pure function of the inputs: a digest, and the number
    of operations it covers, must repeat on every run of the same seed by the
    same binary, traced or not. A run whose digest is not comparable
    (digest_ops -1: burst-async merged two bursts) is skipped."""
    if run["digest_ops"] <= 0:
        return True
    registry = build_dir() / "digests.json"
    stamp = binary.stat()
    build_id = f"{stamp.st_mtime_ns}:{stamp.st_size}"
    known = json.loads(registry.read_text()) if registry.exists() else {}
    if known.get("build") != build_id:
        known = {"build": build_id, "digests": {}}
    key = (f"{run['workload']}:{run['seed']}:"
           f"{'smoke' if run['smoke'] else 'full'}")
    entry = {"digest": run["digest"], "ops": run["digest_ops"]}
    digests = known["digests"]
    if key in digests:
        return digests[key] == entry
    digests[key] = entry
    registry.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def finite(metric):
    """costream_bench prints a non-finite value as null."""
    value = metric.get("value")
    return isinstance(value, (int, float)) and math.isfinite(value)


def declared(spec, trace):
    if spec is None:
        return None
    return spec["per_layer" if trace else "end_to_end"]


def evaluate(run, spec, binary):
    """Applies the output checks; returns (correct, metrics to report)."""
    checks = dict(run["checks"])
    checks["digest_matches_earlier_runs"] = check_digest(run, binary)
    metrics = run["metrics"]
    wanted = declared(spec, bool(run["trace"]))
    if wanted is not None:
        names = [m["name"] for m in wanted]
        checks["declared_metrics_reported"] = all(
            n in metrics and finite(metrics[n]) for n in names)
        metrics = {n: metrics[n] for n in names if n in metrics}
    failed_checks = [name for name, ok in checks.items() if not ok]
    for name in failed_checks:
        print(f"run.py: {run['workload']}: check failed: {name}",
              file=sys.stderr)
    return not failed_checks, metrics


def append_result(out, run):
    path = out / "results.json"
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(run)
    path.write_text(json.dumps(data, indent=1))


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def compare(path_a, path_b):
    spec = load_spec()
    if spec is None:
        fail("BENCHMARK.json not found")
    runs = {}
    for label, path in (("a", path_a), ("b", path_b)):
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                if not finite(metric):
                    continue
                runs.setdefault((label, run["workload"], name), []).append(
                    metric["value"])
    worst = 0
    print(f"{'workload':16} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'IQR/med A':>9} {'IQR/med B':>9} {'worse by':>8} {'bound':>6}")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            a = runs.get(("a", workload, metric["name"]))
            b = runs.get(("b", workload, metric["name"]))
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (
                ma - mb) / ma
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            if verdict != "ok":
                worst = 1
            print(f"{workload:16} {metric['name']:18} {ma:12.6g} {mb:12.6g} "
                  f"{quartile_spread(a):9.3f} {quartile_spread(b):9.3f} "
                  f"{worse:8.3f} {metric['bound']:6.2f} {verdict}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs; runs each workload "
                             "untraced, then traced")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    spec = load_spec()
    binary = build(build_dir())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.smoke else [args.trace]
    correct, attempted, failed, reported = True, 0, 0, {}
    for workload in workloads:
        for trace in modes:
            run = run_binary(binary, workload, args.seed, args.seconds, trace,
                             args.smoke, args.out)
            ok, metrics = evaluate(run, spec, binary)
            correct = correct and ok
            attempted += run["attempted"]
            failed += run["failed"]
            for name, m in {**metrics, **run["info"]}.items():
                value = f"{m['value']:.6g}" if finite(m) else "null"
                print(f"{workload} {name} {value} {m['unit']}")
            if args.out is not None:
                append_result(args.out, {**run, "correct": ok})
            prefix = "" if len(workloads) == 1 and len(modes) == 1 else (
                f"{workload}{'/trace' if trace else ''}/")
            reported.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
