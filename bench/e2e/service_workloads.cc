// Placement-service workloads: churn-steady (sync admission hot path),
// crowd-converge (flash crowds resolved by the rip-up loop) and burst-async
// (open-loop bursts through the async queue and the quantized rank tier).
//
// Per-layer times come from outside the library: a sampled admission's
// inputs (the query, the ledger as it stood right before the call, the
// service-assigned id) are replayed through the layers' public entry points
// in the order PlacementService::PlaceOne / DrainAdmissions calls them, and
// each call is timed.

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "bench_support.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "placement/enumeration.h"
#include "placement/scorer.h"
#include "service/placement_service.h"
#include "service/scoring_engine.h"
#include "sim/fluid_engine.h"
#include "traffic.h"
#include "verify/interval_analysis.h"

namespace costream::e2e {

namespace {

constexpr uint64_t kServiceSeed = 4242;
constexpr int kCrowdWarmup = 500;

// The enumeration seed the service derives for a query's admission
// (DeriveSeed in placement_service.cc, rip-up iteration 0).
uint64_t AdmissionSeed(uint64_t seed, uint64_t id) {
  return Mix64(seed ^ Mix64(id + 1) ^ Mix64(uint64_t{1} << 20));
}

// The scoring engine's obs counters, read together.
enum ScoringCounter {
  kPruned,
  kCacheHits,
  kCacheMisses,
  kRankCacheHits,
  kRankCacheMisses,
  kRanked,
  kRescored,
  kFallbacks,
  kNumScoringCounters,
};
using ScoringCounters = std::array<double, kNumScoringCounters>;

ScoringCounters ReadScoringCounters() {
  static const char* const kNames[kNumScoringCounters] = {
      "service.scoring.pruned",
      "service.scoring.cache_hits",
      "service.scoring.cache_misses",
      "service.scoring.rank_cache_hits",
      "service.scoring.rank_cache_misses",
      "service.scoring.ranked_candidates",
      "service.scoring.rescored_candidates",
      "service.scoring.rank_fallbacks",
  };
  ScoringCounters values{};
  for (int i = 0; i < kNumScoringCounters; ++i) {
    values[i] = static_cast<double>(obs::GetCounter(kNames[i]).Value());
  }
  return values;
}

// a += sign * (b - c), counter by counter.
void AddDelta(ScoringCounters& a, const ScoringCounters& b,
              const ScoringCounters& c, double sign) {
  for (int i = 0; i < kNumScoringCounters; ++i) a[i] += sign * (b[i] - c[i]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One admission to replay: the id the service assigned, the query and the
// placement the service chose.
struct ReplayRequest {
  int64_t id = 0;
  dsps::QueryGraph query;
  sim::Placement chosen;
};

class AdmissionReplayer {
 public:
  AdmissionReplayer(const service::ServiceConfig& config,
                    const ServiceModels& models)
      : config_(config),
        target_(models.target.get()),
        success_(models.success.get()),
        engine_(target_, success_, nullptr, FastPath(config)) {}

  // Replays `requests` (one sync Admit, or one drain batch in FIFO order)
  // against `ledger`, a copy of the service's ledger taken right before the
  // real call. Layers are booked under op `op` / parent span `parent`.
  void Replay(int64_t op, const char* parent,
              const std::vector<ReplayRequest>& requests,
              service::ClusterLoadLedger ledger, LayerRecorder& layers) {
    const ScoringCounters before = ReadScoringCounters();
    // The service reads a ledger that the previous call left hot in cache;
    // touch the fresh copy once so the replay starts from the same state.
    ledger.TotalLoad();
    sim::Cluster view;
    layers.Time(op, "service.ledger_view", parent, true,
                [&] { view = ledger.LoadedView(); });

    const size_t n = requests.size();
    std::vector<std::vector<sim::Placement>> candidates(n);
    layers.Time(op, "placement.enumerate", parent, true, [&] {
      for (size_t r = 0; r < n; ++r) {
        placement::EnumerationConfig ec;
        ec.num_candidates = config_.num_candidates;
        ec.num_bins = config_.num_bins;
        ec.seed =
            AdmissionSeed(config_.seed, static_cast<uint64_t>(requests[r].id));
        ec.num_threads = config_.num_threads;
        candidates[r] =
            placement::EnumerateCandidates(requests[r].query, view, ec);
      }
    });

    std::vector<std::vector<double>> ranked;
    layers.Time(op, "service.rank", parent, true, [&] {
      std::vector<const dsps::QueryGraph*> queries;
      std::vector<const std::vector<sim::Placement>*> lists;
      for (size_t r = 0; r < n; ++r) {
        queries.push_back(&requests[r].query);
        lists.push_back(&candidates[r]);
      }
      engine_.RankRequests(queries, lists, view, ranked);
    });

    for (size_t r = 0; r < n; ++r) {
      ReplayOne(op, parent, requests[r], candidates[r],
                ranked.empty() ? nullptr : &ranked[r], view, ledger, layers);
    }
    AddDelta(replay_counters_, ReadScoringCounters(), before, +1.0);
  }

  // Counter increments the replays themselves caused.
  const ScoringCounters& replay_counters() const { return replay_counters_; }
  // Share of replayed requests whose enumerated candidates contain the
  // placement the service chose: 1.0 while the replay mirrors the service.
  double match_share() const {
    return Ratio(static_cast<double>(matched_), static_cast<double>(replayed_));
  }

 private:
  static service::FastPathConfig FastPath(const service::ServiceConfig& c) {
    service::FastPathConfig fast;
    fast.enabled = c.fast_path;
    fast.quantized_ranking = c.quantized_ranking;
    fast.quant_kind = c.quant_kind;
    fast.rank_top_k = c.rank_top_k;
    fast.rank_members = c.rank_members;
    fast.rank_widen_rounds = c.rank_widen_rounds;
    fast.candidate_cache = c.candidate_cache;
    fast.num_threads = c.num_threads;
    return fast;
  }

  void ReplayOne(int64_t op, const char* parent, const ReplayRequest& request,
                 const std::vector<sim::Placement>& candidates,
                 const std::vector<double>* ranked, const sim::Cluster& view,
                 service::ClusterLoadLedger& ledger, LayerRecorder& layers) {
    const dsps::QueryGraph& query = request.query;
    const int n = static_cast<int>(candidates.size());

    // Interval pre-pass on the bare cluster.
    std::vector<char> demoted(n, 0);
    layers.Time(op, "verify.intervals", parent, true, [&] {
      const verify::QueryIntervalSummary intervals =
          verify::AnalyzeQueryIntervals(query, verify::IntervalOptions{},
                                        nullptr);
      if (intervals.diverged || intervals.inconsistent_source) return;
      for (int i = 0; i < n; ++i) {
        demoted[i] = verify::AnalyzePlacementIntervals(
                         query, ledger.cluster(), candidates[i], intervals,
                         nullptr, nullptr)
                             .proven_crash
                         ? 1
                         : 0;
      }
    });
    const bool any_unproven =
        std::find(demoted.begin(), demoted.end(), 0) != demoted.end();
    const bool prune = config_.interval_pruning && any_unproven;
    std::vector<sim::Placement> subset;
    std::vector<double> subset_ranked;
    for (int i = 0; i < n; ++i) {
      if (prune && demoted[i]) continue;
      subset.push_back(candidates[i]);
      if (ranked != nullptr) subset_ranked.push_back((*ranked)[i]);
    }
    const int m = static_cast<int>(subset.size());

    std::vector<double> factors(m);
    layers.Time(op, "service.penalty", parent, true, [&] {
      const sim::BackgroundLoad total = ledger.TotalLoad();
      const int threads = std::max(
          1, std::min(common::ResolveNumThreads(config_.num_threads), m));
      common::ParallelForIndexed(threads, m, [&](int, int j) {
        const double price = ledger.PlacementPenalty(
            sim::ComputeBackgroundLoad(query, ledger.cluster(), subset[j]),
            total);
        factors[j] = 1.0 + config_.penalty_weight * (price - 1.0);
      });
    });

    service::ScoringEngine::ScoreResult scored;
    const bool maximize = config_.target == sim::Metric::kThroughput;
    layers.Time(op, "service.score", parent, true, [&] {
      scored = engine_.ScoreRequest(query, view, subset, factors, maximize,
                                    subset_ranked);
    });

    layers.Time(op, "service.record", parent, true, [&] {
      ledger.Admit(request.id, sim::ComputeBackgroundLoad(
                                   query, ledger.cluster(), request.chosen));
    });

    // Split of the scoring stage, sequentially: featurization (scorer
    // construction) and one forward per candidate the engine full-scored.
    std::unique_ptr<placement::PlacementScorer> scorer;
    layers.Time(op, "core.featurize", "service.score", false, [&] {
      scorer = std::make_unique<placement::PlacementScorer>(
          query, view, target_, success_, nullptr);
    });
    placement::PlacementScorer::Workspace ws = scorer->MakeWorkspace();
    layers.Time(op, "core.forward", "service.score", false, [&] {
      for (int j = 0; j < m; ++j) {
        if (scored.have_full[j]) scorer->Score(ws, subset[j]);
      }
    });

    ++replayed_;
    if (std::find(candidates.begin(), candidates.end(), request.chosen) !=
        candidates.end()) {
      ++matched_;
    }
  }

  service::ServiceConfig config_;
  const core::Ensemble* target_;
  const core::Ensemble* success_;
  service::ScoringEngine engine_;
  ScoringCounters replay_counters_{};
  int64_t replayed_ = 0;
  int64_t matched_ = 0;
};

// Scoring-counter layer metrics over the measured phase, excluding what the
// replays themselves added.
void ReportScoringLayers(const ScoringCounters& start,
                         const AdmissionReplayer& replayer, int64_t decisions,
                         RunResult& result) {
  ScoringCounters c{};
  AddDelta(c, ReadScoringCounters(), start, +1.0);
  AddDelta(c, replayer.replay_counters(), ScoringCounters{}, -1.0);
  const double scored = c[kCacheHits] + c[kCacheMisses];
  result.Layer("service.scoring.pruned_share",
               Ratio(c[kPruned], c[kPruned] + scored), "share");
  result.Layer("service.scoring.cache_hit_rate", Ratio(c[kCacheHits], scored),
               "share");
  result.Layer("service.scoring.rescored_share",
               Ratio(c[kRescored], c[kRanked]), "share");
  result.Layer("service.scoring.rank_fallbacks_per_decision",
               Ratio(c[kFallbacks], static_cast<double>(decisions)), "count");
  result.Layer("service.scoring.rank_cache_hit_rate",
               Ratio(c[kRankCacheHits],
                     c[kRankCacheHits] + c[kRankCacheMisses]),
               "share");
  result.Layer("layers.replay_match_share", replayer.match_share(), "share");
}

// A service ramped to `tenants` live queries, built `kSetupRepeats` times
// from scratch (models included) so set-up time is a median and the ramp
// decisions are checked for determinism across repeats.
struct RampedService {
  ServiceModels models;
  std::unique_ptr<service::PlacementService> service;
  std::vector<int64_t> live;
};

RampedService SetUpRampedService(const service::ServiceConfig& config,
                                 bool with_success, int tenants,
                                 const workload::QueryGenerator& generator,
                                 nn::Rng& rng, uint64_t rng_seed,
                                 RunResult& result) {
  RampedService ramped;
  std::vector<uint64_t> digests;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ramped.service.reset();
    ramped.models = TrainServiceModels(with_success);
    ramped.service = std::make_unique<service::PlacementService>(
        ServiceCluster(), ramped.models.target.get(),
        ramped.models.success.get(), nullptr, config);
    rng = nn::Rng(rng_seed);
    ramped.live.clear();
    Digest digest;
    for (int i = 0; i < tenants; ++i) {
      const service::AdmitResult r =
          ramped.service->Admit(TenantQuery(generator, rng));
      ramped.live.push_back(r.id);
      digest.Add(static_cast<uint64_t>(r.id));
      digest.AddPlacement(r.placement);
    }
    result.setup_s.push_back(Seconds(t0, Clock::now()));
    digests.push_back(digest.value());
  }
  result.Check("ramp_digest_equal_across_setups", AllEqual(digests));
  return ramped;
}

}  // namespace

void RunChurnSteady(const RunOptions& options, RunResult& result,
                    LayerRecorder& layers) {
  const int tenants = options.smoke ? 200 : 1000;
  service::ServiceConfig config;
  config.num_candidates = 8;
  config.seed = kServiceSeed;
  config.num_threads = 1;
  const workload::QueryGenerator generator(TenantWorkload());
  nn::Rng rng(0);
  RampedService ramped = SetUpRampedService(config, false, tenants, generator,
                                            rng, Mix64(options.seed), result);
  service::PlacementService& service = *ramped.service;
  std::vector<int64_t>& live = ramped.live;

  AdmissionReplayer replayer(config, ramped.models);
  const ScoringCounters counters = ReadScoringCounters();
  Digest digest;
  int64_t decisions = 0;
  int64_t infeasible = 0;
  const Clock::time_point deadline = Deadline(options.seconds);
  while (Clock::now() < deadline || decisions < kDigestOps) {
    const size_t pick =
        static_cast<size_t>(rng.Int(0, static_cast<int>(live.size()) - 1));
    const int64_t victim = live[pick];
    const dsps::QueryGraph query = TenantQuery(generator, rng);
    const bool sampled = layers.enabled() && decisions % kSampleEvery == 0;
    std::optional<service::ClusterLoadLedger> before;
    if (sampled) before.emplace(service.ledger());

    const Clock::time_point t0 = Clock::now();
    const bool retired = service.Retire(victim);
    const Clock::time_point t1 = Clock::now();
    const service::AdmitResult admitted = service.Admit(query);
    const Clock::time_point t2 = Clock::now();

    ++result.attempted;
    if (!retired) ++result.failed;
    live[pick] = admitted.id;
    result.latency_us.push_back(Micros(t1, t2));
    result.throughput.Add(1.0, Seconds(t0, t2));
    if (!admitted.feasible) ++infeasible;
    if (decisions < kDigestOps) {
      digest.Add(static_cast<uint64_t>(admitted.id));
      digest.AddPlacement(admitted.placement);
    }
    if (sampled) {
      layers.Op(decisions, "admit", t1, t2);
      layers.Time(decisions, "service.retire", "admit", false,
                  [&] { before->Retire(victim); });
      replayer.Replay(decisions, "admit",
                      {{admitted.id, query, admitted.placement}},
                      std::move(*before), layers);
    }
    ++decisions;
  }

  result.digest = digest.value();
  result.digest_ops = kDigestOps;
  result.Check("ledger_invariants", service.ledger().CheckInvariants().empty());
  result.Check("live_tenants_kept", service.live_queries() == tenants);
  result.Info("decisions", static_cast<double>(decisions), "count");
  result.Info("infeasible_share",
              Ratio(static_cast<double>(infeasible),
                    static_cast<double>(decisions)),
              "share");
  result.Info("decision_p99_us", Percentile(result.latency_us, 0.99), "us");
  if (layers.enabled()) {
    ReportScoringLayers(counters, replayer, decisions, result);
  }
}

void RunCrowdConverge(const RunOptions& options, RunResult& result,
                      LayerRecorder& layers) {
  const int fog_nodes = options.smoke ? 2 : 10;
  const int crowd_size = 100 * fog_nodes;
  service::ServiceConfig config;
  config.num_candidates = 16;
  config.seed = kServiceSeed;
  config.num_threads = 4;
  const workload::QueryGenerator generator(TenantWorkload());
  nn::Rng rng(Mix64(options.seed));

  // Set-up: the models plus a warm-up crowd of 500 on a throwaway service.
  ServiceModels models;
  std::vector<uint64_t> warmup_digests;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    models = TrainServiceModels(true);
    service::PlacementService warmup(CrowdCluster(fog_nodes),
                                     models.target.get(), models.success.get(),
                                     nullptr, config);
    nn::Rng warmup_rng(Mix64(options.seed ^ 0x5eed));
    Digest digest;
    for (int i = 0; i < kCrowdWarmup; ++i) {
      const service::AdmitResult r =
          warmup.Admit(TenantQuery(generator, warmup_rng));
      digest.AddPlacement(r.placement);
    }
    result.setup_s.push_back(Seconds(t0, Clock::now()));
    warmup_digests.push_back(digest.value());
  }
  result.Check("warmup_digest_equal_across_setups", AllEqual(warmup_digests));

  // Measured: repeated flash crowds, each on a fresh service so crowds are
  // independent of each other (congestion history would otherwise pile up
  // and make later crowds harder than earlier ones). Crowds differ in their
  // mix of admissions and rip-ups, so the rate is taken over the whole run
  // (one window) rather than as a median of a handful of crowds.
  result.throughput = RateWindows(std::numeric_limits<double>::infinity());
  AdmissionReplayer replayer(config, models);
  const ScoringCounters counters = ReadScoringCounters();
  Digest digest;
  int64_t admissions = 0;
  int64_t infeasible = 0;
  int crowds = 0;
  int64_t ripups = 0;
  size_t overflowed_after_last = 0;
  bool all_converged = true;
  bool invariants = true;
  bool drained = true;
  double converge_us_total = 0.0;
  std::vector<double> converge_ms;
  const Clock::time_point deadline = Deadline(options.seconds);
  while (Clock::now() < deadline) {
    service::PlacementService service(CrowdCluster(fog_nodes),
                                      models.target.get(),
                                      models.success.get(), nullptr, config);
    std::vector<dsps::QueryGraph> queries;
    queries.reserve(crowd_size);
    for (int i = 0; i < crowd_size; ++i) {
      queries.push_back(i % 10 == 0 ? BigWindowQuery(rng.Uniform(200.0, 450.0))
                                    : TenantQuery(generator, rng));
    }

    double busy_s = 0.0;
    std::vector<int64_t> ids;
    for (const dsps::QueryGraph& query : queries) {
      const bool sampled = layers.enabled() && admissions % kSampleEvery == 0;
      std::optional<service::ClusterLoadLedger> before;
      if (sampled) before.emplace(service.ledger());
      const Clock::time_point t0 = Clock::now();
      const service::AdmitResult admitted = service.Admit(query);
      const Clock::time_point t1 = Clock::now();
      busy_s += Seconds(t0, t1);
      result.latency_us.push_back(Micros(t0, t1));
      ids.push_back(admitted.id);
      if (!admitted.feasible) ++infeasible;
      if (sampled) {
        layers.Op(admissions, "admit", t0, t1);
        replayer.Replay(admissions, "admit",
                        {{admitted.id, query, admitted.placement}},
                        std::move(*before), layers);
      }
      ++admissions;
    }

    const Clock::time_point c0 = Clock::now();
    const service::ConvergeResult converged = service.Converge();
    const Clock::time_point c1 = Clock::now();
    busy_s += Seconds(c0, c1);
    converge_us_total += Micros(c0, c1);
    converge_ms.push_back(Micros(c0, c1) / 1000.0);
    invariants = invariants && service.ledger().CheckInvariants().empty();
    if (crowds == 0) {
      // The converged deployment of the first crowd: every query's final
      // placement after all rip-ups.
      for (int64_t id : ids) {
        digest.Add(static_cast<uint64_t>(id));
        digest.AddPlacement(service.PlacementOf(id));
      }
      result.digest_ops = crowd_size;
    }

    const Clock::time_point r0 = Clock::now();
    for (int64_t id : ids) drained = service.Retire(id) && drained;
    busy_s += Seconds(r0, Clock::now());
    drained = drained && service.live_queries() == 0;

    const int placements = crowd_size + converged.ripups;
    result.throughput.Add(placements, busy_s);
    result.attempted += placements;
    if (!converged.converged) {
      result.failed += placements;
      all_converged = false;
    }
    ripups += converged.ripups;
    overflowed_after_last = converged.overflowed_nodes.size();
    ++crowds;
  }

  result.digest = digest.value();
  result.Check("every_crowd_converged", all_converged);
  result.Check("ledger_invariants", invariants);
  result.Check("crowds_fully_retired", drained);
  result.Info("crowds", crowds, "count");
  result.Info("converge_p50_ms", Median(converge_ms), "ms");
  result.Info("ripups_per_crowd", Ratio(static_cast<double>(ripups), crowds),
              "count");
  result.Info("overflowed_nodes", static_cast<double>(overflowed_after_last),
              "count");
  result.Info("infeasible_share",
              Ratio(static_cast<double>(infeasible),
                    static_cast<double>(admissions)),
              "share");
  if (layers.enabled()) {
    result.Layer("service.converge_us_per_ripup",
                 Ratio(converge_us_total, static_cast<double>(ripups)), "us");
    result.Layer("service.ripups_per_crowd",
                 Ratio(static_cast<double>(ripups), crowds), "count");
    ReportScoringLayers(counters, replayer, admissions + ripups, result);
  }
}

void RunBurstAsync(const RunOptions& options, RunResult& result,
                   LayerRecorder& layers) {
  const int tenants = options.smoke ? 200 : 1000;
  // A burst every 80 ms. Sizes cycle through kBurstSizes (mean 32: 400
  // requests/s offered) in a seeded order per cycle, so every run offers the
  // same mix of burst sizes and only the order and the queries vary.
  constexpr auto kInterval = std::chrono::milliseconds(80);
  const std::vector<int> kBurstSizes = {16, 24, 32, 40, 48};
  constexpr double kSloUs = 100e3;
  service::ServiceConfig config;
  config.num_candidates = 32;
  config.quantized_ranking = true;
  config.seed = kServiceSeed;
  config.num_threads = 1;
  const workload::QueryGenerator generator(TenantWorkload());
  nn::Rng rng(0);
  RampedService ramped = SetUpRampedService(config, true, tenants, generator,
                                            rng, Mix64(options.seed), result);
  service::PlacementService& service = *ramped.service;
  std::vector<int64_t>& live = ramped.live;

  struct Burst {
    Clock::time_point due;
    std::vector<dsps::QueryGraph> queries;
  };
  std::vector<int> cycle;
  const auto make_burst = [&](Clock::time_point due) {
    if (cycle.empty()) {
      cycle = kBurstSizes;
      rng.Shuffle(cycle);
    }
    Burst burst;
    burst.due = due;
    const int size = cycle.back();
    cycle.pop_back();
    for (int k = 0; k < size; ++k) {
      burst.queries.push_back(TenantQuery(generator, rng));
    }
    return burst;
  };
  // Sampled drains are replayed after the measured phase so the replay never
  // delays the open loop.
  struct DeferredReplay {
    service::ClusterLoadLedger ledger;  // before the burst's departures
    std::vector<int64_t> departed;
    std::vector<ReplayRequest> requests;
    Clock::time_point t0;
    Clock::time_point t1;
  };
  std::vector<DeferredReplay> deferred;

  const ScoringCounters counters = ReadScoringCounters();
  Digest digest;
  int64_t decisions = 0;
  int64_t drains = 0;
  int64_t slo_misses = 0;
  size_t cursor = 0;  // tenants depart oldest-first
  bool merged_in_digest = false;
  int merged_drains = 0;
  bool ids_in_order = true;
  std::vector<double> lag_us;
  std::vector<double> queue_wait_us;
  double batch_total = 0.0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = Deadline(options.seconds);
  Burst next = make_burst(start + kInterval);
  while (next.due < deadline || decisions < kDigestOps) {
    const bool sampled = layers.enabled() && drains % kSampleEvery == 0;
    std::optional<service::ClusterLoadLedger> before;
    if (sampled) before.emplace(service.ledger());
    // Busy-wait for the due time: a sleeping thread wakes on a cold, often
    // down-clocked core, which adds seconds-scale noise to every burst.
    while (Clock::now() < next.due) {
    }

    // Enqueue every burst that is due by now: a loop that fell behind
    // merges them into one drain.
    struct Request {
      int64_t id;
      Clock::time_point due;
      size_t slot;
      const dsps::QueryGraph* query;
    };
    std::deque<Burst> enqueued;  // stable element addresses
    std::vector<Request> requests;
    std::vector<int64_t> departed;
    const Clock::time_point e0 = Clock::now();
    do {
      lag_us.push_back(Micros(next.due, Clock::now()));
      enqueued.push_back(std::move(next));
      for (const dsps::QueryGraph& query : enqueued.back().queries) {
        const size_t slot = cursor++ % live.size();
        departed.push_back(live[slot]);
        if (!service.Retire(live[slot])) ++result.failed;
        requests.push_back({service.AdmitAsync(query), enqueued.back().due,
                            slot, &query});
      }
      next = make_burst(enqueued.back().due + kInterval);
    } while (next.due <= Clock::now() && next.due < deadline);
    const Clock::time_point d0 = Clock::now();
    const std::vector<service::AdmitResult> results =
        service.DrainAdmissions();
    const Clock::time_point d1 = Clock::now();

    result.attempted += static_cast<int64_t>(requests.size());
    if (results.size() != requests.size()) {
      result.failed +=
          static_cast<int64_t>(requests.size()) -
          static_cast<int64_t>(std::min(results.size(), requests.size()));
    }
    if (enqueued.size() > 1) {
      ++merged_drains;
      if (decisions < kDigestOps) merged_in_digest = true;
    }
    const size_t done = std::min(results.size(), requests.size());
    for (size_t k = 0; k < done; ++k) {
      ids_in_order = ids_in_order && results[k].id == requests[k].id;
      live[requests[k].slot] = results[k].id;
      const double latency = Micros(requests[k].due, d1);
      result.latency_us.push_back(latency);
      queue_wait_us.push_back(Micros(requests[k].due, d0));
      if (latency > kSloUs) ++slo_misses;
      if (decisions < kDigestOps) {
        digest.Add(static_cast<uint64_t>(results[k].id));
        digest.AddPlacement(results[k].placement);
      }
      ++decisions;
    }
    result.throughput.Add(static_cast<double>(done), Seconds(e0, d1));
    batch_total += static_cast<double>(requests.size());
    if (sampled) {
      DeferredReplay replay{std::move(*before), std::move(departed), {}, d0,
                            d1};
      for (size_t k = 0; k < done; ++k) {
        replay.requests.push_back(
            {results[k].id, *requests[k].query, results[k].placement});
      }
      deferred.push_back(std::move(replay));
    }
    ++drains;
  }
  const double slo_misses_total =
      static_cast<double>(slo_misses + result.failed);

  result.digest = digest.value();
  result.digest_ops = merged_in_digest ? -1 : kDigestOps;
  result.Check("drain_returns_fifo_ids", ids_in_order);
  result.Check("ledger_invariants", service.ledger().CheckInvariants().empty());
  result.Check("live_tenants_kept", service.live_queries() == tenants);
  result.Info("decisions", static_cast<double>(decisions), "count");
  result.Info("merged_drains", merged_drains, "count");
  result.Info("slo_miss_share",
              Ratio(slo_misses_total, static_cast<double>(result.attempted)),
              "share");
  result.Info("decision_p99_us", Percentile(result.latency_us, 0.99), "us");
  if (layers.enabled()) {
    AdmissionReplayer replayer(config, ramped.models);
    for (size_t i = 0; i < deferred.size(); ++i) {
      DeferredReplay& replay = deferred[i];
      for (int64_t id : replay.departed) replay.ledger.Retire(id);
      const int64_t op = static_cast<int64_t>(i) * kSampleEvery;
      layers.Op(op, "drain", replay.t0, replay.t1);
      replayer.Replay(op, "drain", replay.requests, std::move(replay.ledger),
                      layers);
    }
    result.Layer("service.queue_wait_us", Median(queue_wait_us), "us");
    result.Layer("service.drain_batch_mean",
                 Ratio(batch_total, static_cast<double>(drains)), "count");
    result.Layer("bench.generator_lag_p99_us", Percentile(lag_us, 0.99), "us");
    ReportScoringLayers(counters, replayer, decisions, result);
  }
}

}  // namespace costream::e2e
