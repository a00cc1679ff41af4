// The per-layer cost ladder: one episode's input replayed back to back
// through each layer's public entry point in isolation — ReorderBuffer::
// Offer, Archive::Append, CacqEngine::InjectBatch, GroupedFilter::Apply,
// ShardedEngine::PushBatch/Quiesce, QueryRunner::Advance and AnalyzeSql.
#ifndef CQBENCH_LADDER_H_
#define CQBENCH_LADDER_H_

#include <cstdint>
#include <vector>

#include "cq/spans.h"
#include "cq/workload.h"

namespace cqbench {

/// Times per tuple cover the closed-loop segment's batches; counts and
/// ratios cover the whole episode.
struct LadderResult {
  uint64_t tuples = 0;  ///< Replayed.
  double reorder_ns_per_tuple = 0;
  double archive_append_ns_per_tuple = 0;
  double buffered_max = 0;
  double inject_ns_per_tuple = 0;          ///< CACQ workloads.
  double grouped_filter_ns_per_tuple = 0;  ///< CACQ workloads.
  double grouped_filter_pass_ratio = 0;
  double grouped_filter_rebuild_us = 0;
  double scatter_ns_per_tuple = 0;  ///< Sharded: producer CPU per tuple.
  double producer_blocked_ratio = 0;  ///< Share of PushBatch spent waiting.
  double shard_imbalance = 0;
  double queue_depth_max = 0;
  double advance_us_per_window = 0;  ///< Windowed workload.
  double advance_ns_per_tuple = 0;
  double windows_per_tuple = 0;
  double visits_per_window = 0;
  double rescan_ratio = 0;
  double stem_probes_per_tuple = 0;
  double stem_matches_per_probe = 0;
  double analyze_us = 0;
  /// Rows the delivering cut produced (CacqEngine inline, ShardedEngine
  /// sharded, QueryRunner windows); must equal the Server run's
  /// standing_rows.
  uint64_t rows = 0;
  /// Per tuple: the rows of the ladder a Server::PushBatch crosses.
  double crossed_ns_per_tuple = 0;
  std::vector<Span> spans;
};

LadderResult RunLadder(const Input& in);

}  // namespace cqbench

#endif  // CQBENCH_LADDER_H_
