#include "placement/enumeration.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace costream::placement {

namespace {

using dsps::QueryGraph;
using sim::Cluster;
using sim::Placement;

// Per-operator sets of nodes, as bitsets of 64-bit words (any node count):
// the nodes on any source -> op path of a placement, which the acyclicity
// rule (rule 3) checks against.
class PathSets {
 public:
  PathSets(int ops, int nodes)
      : words_((nodes + 63) / 64), bits_(static_cast<size_t>(ops) * words_) {}

  int words() const { return words_; }
  const uint64_t* Row(int op) const { return &bits_[op * words_]; }
  bool Contains(int op, int node) const {
    return (Row(op)[node >> 6] >> (node & 63)) & 1;
  }
  // path[op] = union of path[up] over `upstream`, plus `node`.
  void Extend(int op, const std::vector<int>& upstream, int node) {
    uint64_t* row = &bits_[op * words_];
    std::fill(row, row + words_, 0);
    for (int up : upstream) {
      const uint64_t* from = Row(up);
      for (int w = 0; w < words_; ++w) row[w] |= from[w];
    }
    row[node >> 6] |= uint64_t{1} << (node & 63);
  }

 private:
  int words_;
  std::vector<uint64_t> bits_;
};

// SamplePlacement with the query's topological order, input lists and
// scratch built once for many draws.
class Sampler {
 public:
  Sampler(const QueryGraph& query, int nodes, const std::vector<int>& bins)
      : nodes_(nodes),
        bins_(bins),
        topo_(query.TopologicalOrder()),
        upstream_(query.num_operators()),
        path_(query.num_operators(), nodes),
        forbidden_(path_.words()) {
    for (int id = 0; id < query.num_operators(); ++id) {
      upstream_[id] = query.Upstream(id);
    }
  }

  // One draw. `*fell_back` reports whether some operator had no admissible
  // node and was co-located with a sender instead. Only such draws can
  // break a rule: the admissible set enforces rule 2 (min bin) and rule 3
  // (nodes an input branch has visited and left) for every other choice.
  Placement Draw(nn::Rng& rng, bool* fell_back) {
    Placement placement(upstream_.size(), -1);
    *fell_back = false;
    for (int id : topo_) {
      const std::vector<int>& upstream = upstream_[id];
      int min_bin = 0;
      // A node is forbidden if any incoming branch has already visited and
      // left it (acyclicity rule). Staying co-located with a branch's sender
      // is fine for that branch, but the other branch of a join may still
      // forbid the node.
      std::fill(forbidden_.begin(), forbidden_.end(), 0);
      for (int up : upstream) {
        const int sender = placement[up];
        min_bin = std::max(min_bin, bins_[sender]);
        const uint64_t* visited = path_.Row(up);
        for (int w = 0; w < path_.words(); ++w) {
          uint64_t word = visited[w];
          if (w == sender >> 6) word &= ~(uint64_t{1} << (sender & 63));
          forbidden_[w] |= word;
        }
      }
      admissible_.clear();
      for (int n = 0; n < nodes_; ++n) {
        if (bins_[n] < min_bin) continue;
        if ((forbidden_[n >> 6] >> (n & 63)) & 1) continue;
        admissible_.push_back(n);
      }
      int chosen;
      if (!admissible_.empty()) {
        chosen = rng.Choice(admissible_);
      } else {
        // Fall back to co-locating with the strongest sender (always legal
        // for rule 2, but it may return data to a node another branch left).
        COSTREAM_CHECK(!upstream.empty());
        *fell_back = true;
        chosen = placement[upstream[0]];
        for (int up : upstream) {
          if (bins_[placement[up]] > bins_[chosen]) chosen = placement[up];
        }
      }
      placement[id] = chosen;
      path_.Extend(id, upstream, chosen);
    }
    return placement;
  }

 private:
  const int nodes_;
  const std::vector<int>& bins_;
  const std::vector<int> topo_;
  std::vector<std::vector<int>> upstream_;
  PathSets path_;
  std::vector<uint64_t> forbidden_;
  std::vector<int> admissible_;
};

}  // namespace

std::vector<int> CapabilityBins(const Cluster& cluster, int num_bins) {
  COSTREAM_CHECK(num_bins >= 1);
  COSTREAM_CHECK(cluster.num_nodes() >= 1);
  std::vector<int> order(cluster.num_nodes());
  for (int i = 0; i < cluster.num_nodes(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return sim::CapabilityScore(cluster.nodes[a]) <
           sim::CapabilityScore(cluster.nodes[b]);
  });
  std::vector<int> bins(cluster.num_nodes(), 0);
  for (int rank = 0; rank < cluster.num_nodes(); ++rank) {
    bins[order[rank]] =
        std::min(num_bins - 1, rank * num_bins / cluster.num_nodes());
  }
  return bins;
}

std::string CheckPlacementRules(const QueryGraph& query, const Cluster& cluster,
                                const Placement& placement, int num_bins) {
  const std::string base = sim::ValidatePlacement(query, cluster, placement);
  if (!base.empty()) return base;
  const std::vector<int> bins = CapabilityBins(cluster, num_bins);
  // Rule 2: non-decreasing capability bins along the data flow.
  for (const auto& [from, to] : query.edges()) {
    if (bins[placement[to]] < bins[placement[from]]) {
      return "capability bin decreases along the data flow";
    }
  }
  // Rule 3: data never returns to a node it has left.
  PathSets path(query.num_operators(), cluster.num_nodes());
  for (int id : query.TopologicalOrder()) {
    path.Extend(id, query.Upstream(id), placement[id]);
  }
  for (const auto& [from, to] : query.edges()) {
    if (placement[to] == placement[from]) continue;  // co-location: no hop
    // The downstream node must not appear anywhere on the upstream path
    // (other than as the immediate sender, which the check above excludes).
    if (path.Contains(from, placement[to])) {
      return "data returns to a previously visited node";
    }
  }
  return "";
}

Placement SamplePlacement(const QueryGraph& query, const Cluster& cluster,
                          const std::vector<int>& bins, nn::Rng& rng) {
  Sampler sampler(query, cluster.num_nodes(), bins);
  bool fell_back = false;
  return sampler.Draw(rng, &fell_back);
}

std::vector<Placement> EnumerateCandidates(const QueryGraph& query,
                                           const Cluster& cluster,
                                           const EnumerationConfig& config) {
  COSTREAM_CHECK(config.num_candidates >= 1);
  nn::Rng rng(config.seed);
  const std::vector<int> bins = CapabilityBins(cluster, config.num_bins);
  Sampler sampler(query, cluster.num_nodes(), bins);
  std::set<Placement> seen;
  std::vector<Placement> result;
  // Oversample to compensate for duplicates in small search spaces. Work in
  // fixed-size blocks: a block is sampled serially from the sequential RNG,
  // the rule checks of its fallback samples fan out over the workers, and
  // the verdicts are consumed in sample order — candidate sampling never
  // depends on acceptance, so the returned set matches the one-at-a-time
  // scan exactly.
  const int attempts = config.num_candidates * 8;
  const int block = config.num_candidates;
  std::vector<Placement> sampled;
  std::vector<char> conforming;
  std::vector<int> fallbacks;
  for (int done = 0; done < attempts && static_cast<int>(result.size()) <
                                            config.num_candidates;
       done += block) {
    const int n = std::min(block, attempts - done);
    sampled.clear();
    fallbacks.clear();
    for (int i = 0; i < n; ++i) {
      bool fell_back = false;
      sampled.push_back(sampler.Draw(rng, &fell_back));
      if (fell_back) fallbacks.push_back(i);
    }
    // Only a sample that fell back to co-location can break a rule (in
    // pathological join merges); enumeration only returns conforming
    // candidates.
    conforming.assign(n, 1);
    common::ParallelFor(
        config.num_threads, static_cast<int>(fallbacks.size()), [&](int k) {
          const int i = fallbacks[k];
          conforming[i] = CheckPlacementRules(query, cluster, sampled[i],
                                              config.num_bins)
                              .empty()
                              ? 1
                              : 0;
        });
    for (int i = 0;
         i < n && static_cast<int>(result.size()) < config.num_candidates;
         ++i) {
      if (!conforming[i]) continue;
      if (seen.insert(sampled[i]).second) {
        result.push_back(std::move(sampled[i]));
      }
    }
  }
  if (result.empty()) {
    // Degenerate fallback: everything on the strongest node is always
    // rule-conforming.
    int strongest = 0;
    for (int n = 1; n < cluster.num_nodes(); ++n) {
      if (sim::CapabilityScore(cluster.nodes[n]) >
          sim::CapabilityScore(cluster.nodes[strongest])) {
        strongest = n;
      }
    }
    result.emplace_back(query.num_operators(), strongest);
  }
  return result;
}

}  // namespace costream::placement
