#!/usr/bin/env bash
# CI entry point: builds and runs the tier-1 test suite under several
# configurations —
#   1. Release: the configuration the experiments run in.
#   2. ThreadSanitizer: proves the thread-pool parallel training / scoring
#      paths are race-free (the suite exercises num_threads > 1 throughout).
#   3. UndefinedBehaviorSanitizer: the whole suite with -fsanitize=undefined
#      and the costream-verify entry-point checks forced on.
# Plus the static layers: costream_lint selftest, clang-tidy and
# clang-format (both skipped with an explicit line when the tool is absent).
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" -L tier1 --output-on-failure -j "$JOBS"
}

echo "=== Release build + tier-1 tests ==="
run_suite build-ci -DCMAKE_BUILD_TYPE=Release

echo "=== costream_lint selftest ==="
# The domain static analyzer must reject its built-in defect fixtures (one
# per rule family: cyclic graph, unplaced operator, slide > window, GEMM
# mismatch, out-of-range scatter, plus the seeded DF interval fixtures:
# diverging cycle, NaN source spec, proven node crash, proven-choked WAN
# link, window-delay bound) and pass the clean fixtures with zero
# diagnostics.
./build-ci/tools/costream_lint --selftest

echo "=== costream_lint CLI gates ==="
# --list-rules must print the full catalog (including the DF interval
# family) and exit 0; an unknown id passed to --rules must exit 2 with a
# hint instead of silently linting everything.
./build-ci/tools/costream_lint --list-rules | grep -q "DF002" ||
  { echo "--list-rules is missing the DF interval family"; exit 1; }
if ./build-ci/tools/costream_lint --rules DF999 README.md 2>/dev/null; then
  echo "--rules with an unknown id must fail"; exit 1
else
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "--rules with an unknown id exited $status (want 2)"; exit 1
  fi
fi

echo "=== Release bench smoke (BENCH_micro.json) ==="
# A short run of the hot-path benchmarks; set -e fails CI on any crash. The
# JSON lands in the repo root for machine-readable before/after comparisons.
# Metrics are explicitly enabled so the spliced "metrics" section reflects a
# fully instrumented run.
# Remember which history snapshots predate this run: the scoring-throughput
# regression gate below compares against the newest PRE-EXISTING snapshot,
# not the one this very run writes.
PREEXISTING_HISTORY="$(ls -1 results/history/BENCH_micro-*.json 2>/dev/null | sort | tr '\n' ':' || true)"
export PREEXISTING_HISTORY
COSTREAM_METRICS=1 ./build-ci/bench/bench_micro \
  --benchmark_filter='BM_GnnInference|BM_GnnTrainStep|BM_ParallelCandidateScoring|BM_BuildJointGraph' \
  --benchmark_min_time=0.05 \
  --benchmark_out=BENCH_micro.json --benchmark_out_format=json
test -s BENCH_micro.json

echo "=== Metrics export gate ==="
# bench_micro splices a "metrics" section (registry export + overhead numbers)
# into BENCH_micro.json. Fail CI if the file is not valid JSON, the section is
# missing, or the scorer's encode-cache hit rate fell below the recorded
# baseline. The on/off overhead is printed for before/after visibility but not
# gated (it is noisy on shared CI machines; budget is <= 2%).
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)  # raises on invalid JSON -> CI failure
metrics = report.get("metrics")
if metrics is None:
    sys.exit("BENCH_micro.json is missing the spliced 'metrics' section")
with open("scripts/metrics_baseline.json") as f:
    baseline = json.load(f)
hit_rate = metrics["encode_cache_hit_rate"]
floor = baseline["min_encode_cache_hit_rate"]
print(f"encode-cache hit rate: {hit_rate:.4f} (floor {floor})")
print(f"metrics overhead: {metrics['overhead_pct']:.2f}% "
      f"(enabled {metrics['scoring_candidates_per_s_enabled']:.0f} cand/s, "
      f"disabled {metrics['scoring_candidates_per_s_disabled']:.0f} cand/s)")
if hit_rate < floor:
    sys.exit(f"encode-cache hit rate {hit_rate:.4f} below baseline {floor}")
EOF

echo "=== Scoring fast-path gate ==="
# bench_micro splices a "scoring_fastpath" section: the cross-request batched
# scoring engine (quantized ranking tier + candidate cache, single thread)
# against per-request full-precision scoring on the same workload. Hard
# gates: the ranking tier actually ran, top-1 decision agreement >= 0.99 for
# BOTH quantization kinds (the decisions a tenant sees must match the
# fp32-only path), the timed workload's decisions agree, and the candidate
# cache hit rate clears its recorded floor. The >= 10x speedup gate applies
# on the reference ISA (avx512, where the quantized kernels have their full
# vector clones); other boxes get a conservative 3x floor with an explicit
# line, since no honest 10x number exists without the avx512 tier.
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)
fp = report.get("scoring_fastpath")
if fp is None:
    sys.exit("BENCH_micro.json is missing the spliced 'scoring_fastpath' "
             "section")
with open("scripts/metrics_baseline.json") as f:
    baseline = json.load(f)
kernel = fp.get("context", {}).get("kernel_active", "unknown")
print(f"fast path: {fp['fast_candidates_per_s']:.0f} cand/s vs baseline "
      f"{fp['baseline_candidates_per_s']:.0f} cand/s "
      f"(speedup {fp['speedup']:.2f}x, kernel {kernel})")
print(f"agreement: top-1 int8 {fp['top1_agreement_int8']:.4f} / "
      f"bf16 {fp['top1_agreement_bf16']:.4f} over "
      f"{fp['agreement_queries']} queries; timed decisions "
      f"{fp['timed_decision_agreement']:.4f}")
print(f"cache: hit rate {fp['cache_hit_rate']:.4f} "
      f"({fp['cache_hits']} hits / {fp['cache_misses']} misses), "
      f"rank-cache hits {fp['rank_cache_hits']}, "
      f"fallbacks {fp['rank_fallbacks']}")
if not fp["ranking_active"]:
    sys.exit("quantized ranking tier was inactive during the fast-path run")
for kind in ("int8", "bf16"):
    if fp[f"top1_agreement_{kind}"] < 0.99:
        sys.exit(f"top-1 agreement ({kind}) "
                 f"{fp[f'top1_agreement_{kind}']:.4f} below the 0.99 gate")
if fp["timed_decision_agreement"] < 0.99:
    sys.exit(f"timed decision agreement "
             f"{fp['timed_decision_agreement']:.4f} below the 0.99 gate")
floor = baseline["min_scoring_cache_hit_rate"]
if fp["cache_hit_rate"] < floor:
    sys.exit(f"candidate-cache hit rate {fp['cache_hit_rate']:.4f} below "
             f"the recorded floor {floor}")
speedup_floor = 10.0 if kernel == "avx512" else 3.0
if kernel != "avx512":
    print(f"speedup gate: relaxed to {speedup_floor}x "
          f"(kernel '{kernel}' is not the reference avx512 tier)")
if fp["speedup"] < speedup_floor:
    sys.exit(f"fast-path speedup {fp['speedup']:.2f}x below the "
             f"{speedup_floor}x gate")
EOF

echo "=== Scoring-throughput regression gate ==="
# Compares this run's fast-path throughput against the newest history
# snapshot that (a) predates this CI run and (b) already has a
# scoring_fastpath section. A drop below 0.9x the recorded rate fails CI; if
# no prior snapshot qualifies (first run with the fast path), the gate is
# reported as skipped — there is nothing honest to regress against.
python3 - <<'EOF'
import json, os, sys

with open("BENCH_micro.json") as f:
    current = json.load(f)["scoring_fastpath"]
candidates = [p for p in os.environ.get("PREEXISTING_HISTORY", "").split(":")
              if p]
reference = None
for path in reversed(candidates):  # newest first (names sort by timestamp)
    try:
        with open(path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError):
        continue
    if "scoring_fastpath" in snap:
        reference = (path, snap["scoring_fastpath"])
        break
if reference is None:
    print("scoring-throughput regression gate: SKIPPED (no prior history "
          "snapshot with a scoring_fastpath section)")
    sys.exit(0)
path, prior = reference
ratio = current["fast_candidates_per_s"] / prior["fast_candidates_per_s"]
print(f"fast-path throughput: {current['fast_candidates_per_s']:.0f} cand/s "
      f"vs {prior['fast_candidates_per_s']:.0f} cand/s in "
      f"{os.path.basename(path)} (ratio {ratio:.3f})")
if ratio < 0.9:
    sys.exit(f"fast-path throughput regressed to {ratio:.3f}x of the "
             "recorded rate (floor 0.9x)")
EOF

echo "=== Geo DES-vs-fluid gate ==="
# bench_micro splices a "geo" section: a randomized population of
# multi-region WAN clusters evaluated by both engines with per-instance DES
# scheduling. Gates: the section must exist and be valid JSON, every sampled
# cluster must actually carry a link matrix, the off-boundary label
# agreement between the engines must stay above the floor, and the DES event
# rate must not collapse against the newest pre-existing history snapshot
# (explicitly skipped on the first run — nothing honest to regress against).
python3 - <<'EOF'
import json, os, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)  # raises on invalid JSON -> CI failure
geo = report.get("geo")
if geo is None:
    sys.exit("BENCH_micro.json is missing the spliced 'geo' section")
if geo["geo_clusters"] != geo["cases"]:
    sys.exit(f"only {geo['geo_clusters']} of {geo['cases']} sampled clusters "
             "carry a link matrix (geo_probability=1 should be exhaustive)")
rate = geo["label_agreement_rate"]
print(f"geo DES-vs-fluid label agreement: {rate:.3f} "
      f"({geo['label_agreements']}/{geo['label_checked']} off-boundary), "
      f"throughput ratio median {geo['throughput_ratio_median']:.3f}, "
      f"DES {geo['des_events_per_s']:.0f} events/s")
if geo["label_checked"] > 0 and rate < 0.75:
    sys.exit(f"geo label agreement {rate:.3f} below the 0.75 floor")

candidates = [p for p in os.environ.get("PREEXISTING_HISTORY", "").split(":")
              if p]
reference = None
for path in reversed(candidates):  # newest first (names sort by timestamp)
    try:
        with open(path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError):
        continue
    if "geo" in snap:
        reference = (path, snap["geo"])
        break
if reference is None:
    print("geo DES event-rate regression gate: SKIPPED (no prior history "
          "snapshot with a geo section)")
    sys.exit(0)
path, prior = reference
if prior["des_events_per_s"] <= 0:
    print("geo DES event-rate regression gate: SKIPPED (prior snapshot has "
          "no DES timing)")
    sys.exit(0)
ratio = geo["des_events_per_s"] / prior["des_events_per_s"]
print(f"geo DES event rate: {geo['des_events_per_s']:.0f}/s vs "
      f"{prior['des_events_per_s']:.0f}/s in {os.path.basename(path)} "
      f"(ratio {ratio:.3f})")
if ratio < 0.5:
    sys.exit(f"geo DES event rate regressed to {ratio:.3f}x of the recorded "
             "rate (floor 0.5x)")
EOF

echo "=== Thread-scaling counter gate ==="
# Every BM_ParallelCandidateScoring/N entry must carry a "workers" counter
# equal to its thread-count argument — this is what lets downstream tooling
# group scaling curves without parsing benchmark names, and it regressed
# once (the counter was hardcoded to 1 for every arm).
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)
checked = 0
for entry in report.get("benchmarks", []):
    name = entry.get("name", "")
    if not name.startswith("BM_ParallelCandidateScoring/"):
        continue
    arg = int(name.split("/")[1])
    workers = entry.get("workers")
    if workers is None:
        sys.exit(f"{name} is missing its 'workers' counter")
    if int(workers) != arg:
        sys.exit(f"{name} reports workers={workers}, expected {arg}")
    checked += 1
print(f"workers counter verified on {checked} "
      "BM_ParallelCandidateScoring entries")
if checked == 0:
    sys.exit("no BM_ParallelCandidateScoring entries found to check")
EOF

echo "=== Static-verification overhead gate ==="
# bench_micro splices a "verify" section: candidate-scoring rate with the
# costream-verify entry-point checks forced on vs off. The scorer verifies
# once at construction (never per candidate), so the <= 2% budget is a hard
# gate here; verify_runs > 0 proves the instrumented pass really verified.
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)
v = report.get("verify")
if v is None:
    sys.exit("BENCH_micro.json is missing the spliced 'verify' section")
print(f"verify overhead: {v['overhead_pct']:.2f}% "
      f"(verified {v['scoring_candidates_per_s_verified']:.0f} cand/s, "
      f"unverified {v['scoring_candidates_per_s_unverified']:.0f} cand/s, "
      f"{v['verify_runs']} verifier runs)")
if v["verify_runs"] <= 0:
    sys.exit("verified pass recorded no verify.runs — checks did not execute")
if v["verify_reports_failed"] > 0:
    sys.exit(f"{v['verify_reports_failed']} verify reports failed on the "
             "scoring hot path")
if v["overhead_pct"] > 2.0:
    sys.exit(f"verification overhead {v['overhead_pct']:.2f}% exceeds the "
             "2% budget")
EOF

echo "=== Corpus-pipeline gate ==="
# bench_micro also splices a "corpus_pipeline" section: direct timings of the
# label-collection pipeline (generate/save/load) on a smoke corpus. Hard
# gates: parallel generation must be bitwise-identical to serial (hash
# equality — correctness, not speed) and the v2 binary loader must be >= 3x
# faster than the v1 text parser. The 4-thread generation speedup is gated
# (> 2x) only on machines with >= 4 hardware threads; on smaller CI boxes the
# gate is explicitly reported as skipped, since no honest scaling number
# exists there.
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)
cp = report.get("corpus_pipeline")
if cp is None:
    sys.exit("BENCH_micro.json is missing the spliced 'corpus_pipeline' section")
print(f"corpus: {cp['records']} records, "
      f"{cp['hardware_threads']} hardware threads")
print(f"build: {cp['build_records_per_s_serial']:.0f} rec/s serial, "
      f"{cp['build_records_per_s_4t']:.0f} rec/s @4t "
      f"(speedup {cp['build_speedup_4t']:.2f}x)")
print(f"load: v1 {cp['load_records_per_s_v1']:.0f} rec/s, "
      f"v2 {cp['load_records_per_s_v2']:.0f} rec/s "
      f"(speedup {cp['v2_load_speedup']:.2f}x); "
      f"bytes v1 {cp['v1_bytes']} -> v2 {cp['v2_bytes']}")
if not cp["build_bitwise_equal"]:
    sys.exit("parallel BuildCorpus is not bitwise-identical to serial "
             f"(hash {cp['corpus_hash_serial']} vs {cp['corpus_hash_4t']})")
if not cp["load_ok"]:
    sys.exit("trace load smoke failed (wrong record count)")
if cp["v2_load_speedup"] < 3.0:
    sys.exit(f"v2 load speedup {cp['v2_load_speedup']:.2f}x below the 3x gate")
if cp["hardware_threads"] < 4:
    print(f"corpus-generation scaling gate: SKIPPED (hardware_threads "
          f"{cp['hardware_threads']} < 4)")
elif cp["build_speedup_4t"] <= 2.0:
    sys.exit(f"parallel BuildCorpus speedup {cp['build_speedup_4t']:.2f}x "
             "at 4 threads below the 2x gate")
EOF

echo "=== Corpus out-of-core gate ==="
# bench_micro splices a "corpus_outofcore" section: the block-compressed v2c
# format and the streaming training pipeline on a smoke corpus. Hard gates:
# the FNV-1a sample hash of the samples streamed through the bounded-cache
# TraceReader must equal the in-memory ToTrainSamples hash (bitwise
# correctness, not speed), the compressed loader must be >= 3x faster than
# the v1 text parser, the compressed image must be <= 0.8x the plain-v2
# size, and the reader's peak cached bytes must stay under 0.75x of the
# uncompressed payload (proving the corpus never sat in memory whole). The
# streaming-epoch throughput is additionally compared against the newest
# qualifying history snapshot; with no prior snapshot the regression leg is
# reported as skipped.
python3 - <<'EOF'
import json, os, sys

with open("BENCH_micro.json") as f:
    ooc = json.load(f).get("corpus_outofcore")
if ooc is None:
    sys.exit("BENCH_micro.json is missing the spliced 'corpus_outofcore' "
             "section")
print(f"corpus: {ooc['records']} records in {ooc['num_blocks']} blocks of "
      f"{ooc['block_bytes']} bytes")
print(f"load: v1 {ooc['load_records_per_s_v1']:.0f} rec/s, "
      f"v2 {ooc['load_records_per_s_v2']:.0f} rec/s, "
      f"v2c {ooc['load_records_per_s_v2c']:.0f} rec/s "
      f"(v2c vs v1 {ooc['v2c_vs_v1_load_speedup']:.2f}x)")
print(f"size: v2 {ooc['v2_bytes']} -> v2c {ooc['v2c_bytes']} bytes "
      f"(ratio {ooc['size_ratio_v2c_over_v2']:.3f})")
print(f"streaming: {ooc['streamed_samples']} samples at "
      f"{ooc['streaming_epoch_samples_per_s']:.0f} samples/s; "
      f"peak cache {ooc['peak_cached_bytes']} / "
      f"{ooc['uncompressed_payload_bytes']} bytes "
      f"({ooc['peak_cached_fraction']:.3f})")
if not ooc["load_ok"]:
    sys.exit("compressed-trace load smoke failed (wrong record count)")
if not ooc["streaming_bitwise_equal"]:
    sys.exit("streamed samples are not bitwise-identical to the in-memory "
             f"path (hash {ooc['sample_hash_streaming']} vs "
             f"{ooc['sample_hash_inmemory']}, "
             f"{ooc['streamed_samples']} vs {ooc['inmemory_samples']} "
             "samples)")
if ooc["v2c_vs_v1_load_speedup"] < 3.0:
    sys.exit(f"compressed load speedup {ooc['v2c_vs_v1_load_speedup']:.2f}x "
             "over v1 text below the 3x gate")
if ooc["size_ratio_v2c_over_v2"] > 0.8:
    sys.exit(f"compressed size ratio {ooc['size_ratio_v2c_over_v2']:.3f} "
             "above the 0.8x gate")
if ooc["peak_cached_fraction"] > 0.75:
    sys.exit(f"reader cache peaked at {ooc['peak_cached_fraction']:.3f} of "
             "the corpus — the bounded cache is not bounding (0.75x gate)")
candidates = [p for p in os.environ.get("PREEXISTING_HISTORY", "").split(":")
              if p]
reference = None
for path in reversed(candidates):  # newest first (names sort by timestamp)
    try:
        with open(path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError):
        continue
    if "corpus_outofcore" in snap:
        reference = (path, snap["corpus_outofcore"])
        break
if reference is None:
    print("streaming-epoch regression gate: SKIPPED (no prior history "
          "snapshot with a corpus_outofcore section)")
    sys.exit(0)
path, prior = reference
ratio = (ooc["streaming_epoch_samples_per_s"] /
         prior["streaming_epoch_samples_per_s"])
print(f"streaming epoch: {ooc['streaming_epoch_samples_per_s']:.0f} "
      f"samples/s vs {prior['streaming_epoch_samples_per_s']:.0f} in "
      f"{os.path.basename(path)} (ratio {ratio:.3f})")
if ratio < 0.9:
    sys.exit(f"streaming-epoch throughput regressed to {ratio:.3f}x of the "
             "recorded rate (floor 0.9x)")
EOF

echo "=== Placement-service bench + gates ==="
# bench_service ramps the multi-tenant placement service to 1000 concurrent
# queries on a 24-node cluster, churns arrivals/departures against the shared
# ledger, runs the negotiated-congestion convergence loop, and splices a
# "service" section into BENCH_micro.json. Hard gates: valid JSON, the
# concurrency target actually sustained, a conservative placements/s floor
# (measured ~2000/s on the reference machine; the floor leaves 20x headroom
# for slow CI boxes), convergence, and ledger consistency.
./build-ci/bench/bench_service
python3 - <<'EOF'
import json, sys

with open("BENCH_micro.json") as f:
    report = json.load(f)  # raises on invalid JSON -> CI failure
s = report.get("service")
if s is None:
    sys.exit("BENCH_micro.json is missing the spliced 'service' section")
print(f"service: {s['concurrent_queries']} concurrent queries, "
      f"{s['placements']} placements at {s['placements_per_s']:.0f}/s, "
      f"converged={s['converged']} (iterations {s['converge_iterations']}, "
      f"ripups {s['ripups']})")
print(f"aggregate over {s['measured_queries']} queries: "
      f"predicted {s['aggregate_predicted_tuples_per_s']:.0f} t/s, "
      f"DES {s['aggregate_des_tuples_per_s']:.0f} t/s "
      f"(ratio {s['predicted_vs_des_ratio']:.2f})")
if s["concurrent_queries"] < 1000:
    sys.exit(f"service sustained only {s['concurrent_queries']} concurrent "
             "queries (target 1000)")
if s["placements_per_s"] < 100.0:
    sys.exit(f"placement rate {s['placements_per_s']:.0f}/s below the "
             "100/s floor")
if not s["converged"]:
    sys.exit(f"service did not converge ({s['overflowed_nodes']} nodes "
             "left overflowed)")
if not s["ledger_consistent"]:
    sys.exit("ledger invariants violated after the bench scenario")
print(f"pruning A/B over {s['pruning_ab_queries']} queries: "
      f"{s['scoring_pruned']} candidates pruned, "
      f"bitwise identical={s['pruning_bitwise_identical']}")
if s["scoring_pruned"] <= 0:
    sys.exit("interval pre-pass pruned no candidates on the A/B workload")
if not s["pruning_bitwise_identical"]:
    sys.exit("pruning changed a placement decision — the demotion-tier "
             "bitwise invariant is broken")
EOF

echo "=== clang-format check ==="
# Check-only (no in-place edits): a formatting drift fails CI where the tool
# exists and is reported as skipped where it does not (the baked CI image
# ships gcc only).
if command -v clang-format >/dev/null 2>&1; then
  git ls-files 'src/**/*.cc' 'src/**/*.h' 'tools/*.cc' 'tests/*.cc' \
      'bench/*.cc' 'bench/*.h' |
    xargs clang-format --dry-run --Werror
else
  echo "clang-format: SKIPPED (clang-format not installed)"
fi

echo "=== clang-tidy ==="
# Curated checks from .clang-tidy over all of src/ and the tools. Uses the
# Release compile database.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-ci -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/**/*.cc' 'tools/*.cc' |
    xargs clang-tidy -p build-ci --warnings-as-errors='*'
else
  echo "clang-tidy: SKIPPED (clang-tidy not installed)"
fi

echo "=== ThreadSanitizer build + tier-1 tests ==="
run_suite build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOSTREAM_SANITIZE=thread

echo "=== UndefinedBehaviorSanitizer build + tier-1 tests ==="
# -fno-sanitize-recover=all: any UB aborts the test. COSTREAM_FORCE_CHECKS is
# defined by this mode, so every verify entry point runs its rules too.
run_suite build-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCOSTREAM_SANITIZE=undefined

echo "=== AddressSanitizer trace-loader fuzz sweep ==="
# The randomized corruption sweep must stay clean under ASan: the zero-copy
# v2 parser's bounds checks are the only thing between a lying length prefix
# and an out-of-bounds read. The codec suite rides along: the block
# decompressor copies in 16-byte chunks that overshoot each run, and only
# its room checks keep those copies inside both buffers. Only these binaries
# run here — the full suite already ran under TSan above.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOSTREAM_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target workload_trace_fuzz_test common_codec_test service_churn_test
ctest --test-dir build-asan -R 'workload_trace_fuzz_test|common_codec_test' \
  --output-on-failure

echo "=== AddressSanitizer service churn sweep ==="
# The churn suite drives the long-lived service through hundreds of
# admit/retire cycles — the most allocation-heavy ownership pattern in the
# repo (ledger entries, per-candidate workspaces, re-placements), so it runs
# once under ASan on top of the usual Release/TSan/UBSan legs.
ctest --test-dir build-asan -R service_churn_test --output-on-failure

echo "=== AddressSanitizer fast-path sweep ==="
# The quantized kernels hand-index packed bf16/int8 weight blocks with raw
# pointers and the scoring engine pools workspaces across requests, so the
# kernel-dispatch parity suite, the quantization suite, and the fast-path
# agreement suite each get an ASan pass too. The batched-equivalence suite
# rides along: it holds the only per-node oracle and drives the scorer's
# cached encodings and the batch-graph plans the quantized ranker walks. So
# do the featurizer suite, which checks the batch-graph layout the ranker
# indexes through, and the shape suite, which lowers the plan's segment
# sums.
cmake --build build-asan -j "$JOBS" --target nn_kernel_dispatch_test \
  nn_quantized_test service_fastpath_test core_batched_equivalence_test \
  core_featurizer_test verify_shape_test
ctest --test-dir build-asan -R \
  'nn_kernel_dispatch_test|nn_quantized_test|service_fastpath_test|core_batched_equivalence_test|core_featurizer_test|verify_shape_test' \
  --output-on-failure

echo "=== AddressSanitizer enumeration and shared-pool sweep ==="
# Candidate enumeration holds path sets as node bitsets of 64-bit words; the
# placement suite's golden lists run on 63-, 64-, 65- and 100-node clusters,
# so the multi-word indexing runs here. The determinism suite drives one
# service-wide worker pool shared by candidate pricing and the scoring
# engine at 4 threads, whose worker slots index the scorer workspaces.
cmake --build build-asan -j "$JOBS" --target placement_test \
  service_determinism_test
ctest --test-dir build-asan -R '^(placement_test|service_determinism_test)$' \
  --output-on-failure

echo "=== AddressSanitizer geo / per-instance DES sweep ==="
# The per-instance DES scheduler moves work between per-operator FIFOs and a
# pooled in-flight slot vector that reallocates mid-event (FinishInstance
# routes outputs that can re-enter the same node), and the per-link WAN path
# indexes a flattened n x n matrix — both are exactly the pointer-stability
# patterns ASan exists for. This also covers the parallelism > 1
# backpressure-boundary sweep required to run under ASan.
cmake --build build-asan -j "$JOBS" --target sim_geo_test
ctest --test-dir build-asan -R sim_geo_test --output-on-failure

echo "=== AddressSanitizer interval-oracle sweep ==="
# The randomized oracle property sweep (hundreds of query/cluster/placement
# triples, geo link matrices included) re-runs under ASan with verification
# forced on: every fluid evaluation walks the interval analysis's
# heap-allocated per-op/per-node/per-link vectors, and the pruning A/B
# exercises the demoted-candidate subset indexing in the service. One
# flow-math template (src/sim/flow_math.h) drives the fluid engine, its
# background load and the interval analysis, so their own suites and the
# golden flow-math digests run here too: this is where the template's
# per-op, per-node and per-link indexing runs under ASan.
cmake --build build-asan -j "$JOBS" \
  --target verify_oracle_sweep_test service_pruning_test \
  verify_interval_test sim_fluid_test sim_flow_math_test
ctest --test-dir build-asan \
  -R 'verify_oracle_sweep_test|service_pruning_test|verify_interval_test|sim_fluid_test|sim_flow_math_test' \
  --output-on-failure

echo "CI passed."
