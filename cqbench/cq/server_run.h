// Drives one episode's generated input through the public Server API:
// setup, the closed-loop segment, the light and heavy open-loop stretches
// with query churn, a final drain, and the reference check of the results.
#ifndef CQBENCH_SERVER_RUN_H_
#define CQBENCH_SERVER_RUN_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cq/spans.h"
#include "cq/workload.h"

namespace cqbench {

struct ServerRunOptions {
  bool traced = false;    ///< Record spans around every Server call.
  size_t setup_reps = 2;  ///< Setups timed; the last one runs the input.
};

/// One result callback (traced runs): the batch that made the result final
/// and when the callback ran.
struct CallbackRecord {
  uint32_t batch = 0;
  uint32_t rows = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What one episode measured.
struct ServerRun {
  std::vector<double> setup_s;
  double closed_wall_s = 0;  ///< First PushBatch to the drain after the last.
  double closed_cpu_s = 0;
  uint64_t closed_tuples = 0;
  /// Per open-loop phase (0 light, 1 heavy), per latency window (one churn
  /// period): latency percentiles.
  std::array<std::vector<double>, 2> lat_p50_us, lat_p99_us;
  std::array<size_t, 2> lat_samples{};
  /// Per open-loop phase: the p99 of every sample of the episode.
  std::array<double, 2> lat_p99_pooled_us{};
  std::array<std::vector<double>, 2> send_late_us;
  std::vector<double> submit_us, cancel_us, quiesce_ms;
  std::vector<uint8_t> submit_phase;  ///< Phase of each churn Submit.
  double rss_growth_mb = 0;

  uint64_t attempted = 0;  ///< API calls + tuples pushed + rows checked.
  uint64_t failed = 0;     ///< Failed calls + rejected tuples + wrong rows.
  uint64_t rows = 0;       ///< Rows called back.
  uint64_t tuples = 0;     ///< Tuples pushed.
  uint64_t batches = 0;
  uint64_t churns = 0;
  /// Rows of the standing queries; the ladder replays the same input and
  /// its delivering cut must produce the same count.
  uint64_t standing_rows = 0;

  /// MetricRegistry deltas (read from outside the engine).
  std::map<std::string, uint64_t> closed_delta, run_delta;
  uint64_t history_resident = 0;  ///< SnapshotMetrics archive residents.

  // Traced runs only.
  std::vector<Span> spans;
  std::vector<CallbackRecord> callbacks;
  std::vector<int64_t> push_span;  ///< Span index of PushBatch per batch.
  uint64_t arrival_violations = 0;  ///< Callbacks outside their arrival.
};

/// Registry counters the benchmark reads deltas of.
std::map<std::string, uint64_t> ReadCounters();
std::map<std::string, uint64_t> Delta(const std::map<std::string, uint64_t>& a,
                                      const std::map<std::string, uint64_t>& b);

ServerRun RunServer(const Input& in, const ServerRunOptions& opts);

double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

}  // namespace cqbench

#endif  // CQBENCH_SERVER_RUN_H_
