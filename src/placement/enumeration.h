#ifndef COSTREAM_PLACEMENT_ENUMERATION_H_
#define COSTREAM_PLACEMENT_ENUMERATION_H_

#include <cstdint>
#include <vector>

#include "dsps/query_graph.h"
#include "nn/random.h"
#include "sim/hardware.h"

namespace costream::placement {

// Classifies cluster nodes into `num_bins` capability bins (0 = weakest,
// edge-like; num_bins-1 = strongest, cloud-like) by their CapabilityScore
// terciles. Placement rule 2 of Fig. 5 requires the bin to be non-decreasing
// along the data flow.
std::vector<int> CapabilityBins(const sim::Cluster& cluster, int num_bins = 3);

// Checks the three enumeration rules of Fig. 5 for a placement:
//   1. co-location allowed (no constraint),
//   2. capability bins never decrease along the data flow,
//   3. acyclic: once data has left a node, it never returns to it.
// Returns an empty string when the placement conforms.
std::string CheckPlacementRules(const dsps::QueryGraph& query,
                                const sim::Cluster& cluster,
                                const sim::Placement& placement,
                                int num_bins = 3);

// Samples one placement satisfying the rules (operators assigned in
// topological order; each picks uniformly among the still-admissible nodes).
sim::Placement SamplePlacement(const dsps::QueryGraph& query,
                               const sim::Cluster& cluster,
                               const std::vector<int>& bins, nn::Rng& rng);

struct EnumerationConfig {
  int num_candidates = 50;
  int num_bins = 3;
  uint64_t seed = 1;
  // Worker threads for checking the placement rules of sampled candidates
  // (<= 0: all hardware threads). Only samples for which the sampler fell
  // back to co-location are checked; every other sample conforms by
  // construction. Sampling itself stays on the sequential RNG and verdicts
  // are consumed in sample order, so the returned candidates are identical
  // for every thread count.
  int num_threads = 0;
};

// Enumerates rule-conforming placement candidates (paper Section V: a
// heuristic strategy based on [32] restricted to realistic IoT placements).
// Duplicates are removed, so fewer than `num_candidates` may be returned
// for small search spaces.
std::vector<sim::Placement> EnumerateCandidates(const dsps::QueryGraph& query,
                                                const sim::Cluster& cluster,
                                                const EnumerationConfig& config);

}  // namespace costream::placement

#endif  // COSTREAM_PLACEMENT_ENUMERATION_H_
