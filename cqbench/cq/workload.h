// Seeded workload generator for the end-to-end continuous-query benchmark.
//
// A run is a warm-up episode plus TimedEpisodes(seconds) more, each on a
// fresh Server: one closed-loop segment, then a light and a heavy open-loop
// stretch. Everything an episode feeds the engine is derived from
// (workload, seed, episode) before its clock starts: the rows of every
// stream in
// arrival order, the 64-tuple batches and their phase, the standing and
// churned query sets, and for every tuple the batch whose arrival makes its
// results final. The engine sees only the generated tuples.
#ifndef CQBENCH_WORKLOAD_H_
#define CQBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace cqbench {

constexpr size_t kBatchTuples = 64;
/// Window hop of every windowed query, in timestamp units (one batch).
constexpr int64_t kWindowHop = 64;

enum class Kind { kCacq, kWindowed };

/// One workload's fixed shape. Rates are absolute (tuples/s) and were set
/// once at about 20% and 60% of the closed-loop throughput measured on the
/// reference host (README.md).
struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t shards;              ///< Server::Options::cacq_shards.
  int64_t max_disorder;       ///< Server::Options::max_disorder (ts units).
  size_t segment_tuples;      ///< N: tuples per closed-loop segment.
  double light_tps;           ///< Open-loop light rate.
  double heavy_tps;           ///< Open-loop heavy rate.
  /// Length of each open-loop stretch of an episode: enough results for a
  /// p99, within the memory one episode's retained history takes.
  double open_seconds;
  size_t churn_every;         ///< Batches between churn Submit+Cancel.
};

/// The benchmark's workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

constexpr size_t kNumSymbols = 512;
constexpr double kZipfS = 1.0;
/// Share of tuples arriving late, within max_disorder (when it is > 0).
constexpr double kDisplacedShare = 0.05;

/// A generated tuple, compact. `seq` is the tuple's index in its stream's
/// timestamp order (ts == seq + 1), unique per stream.
struct Row {
  int64_t ts = 0;
  int64_t seq = 0;
  double price = 0;
  uint32_t sym = 0;
};

struct Batch {
  uint8_t stream = 0;
  uint32_t begin = 0, end = 0;  ///< Range of Input::arrivals[stream].
};

enum class Phase : uint8_t { kClosed = 0, kLight = 1, kHeavy = 2 };

/// Each episode runs on its own Server, so memory stays bounded by one
/// episode's history however long the run. A run of `seconds` times one
/// episode per kEpisodeSeconds (at least 3), after one untimed warm-up
/// episode.
constexpr double kEpisodeSeconds = 2.2;
size_t TimedEpisodes(double seconds);

/// Latency percentiles are taken per latency window, one churn period of
/// an open-loop stretch (so every window holds one churn stall and the
/// same steady flow), and the median over all windows of the run is
/// reported: a host preemption moves the windows it hits, not the median.
/// The p99 of all samples pooled is reported beside it (README.md).

/// A contiguous run of batches measured together.
struct Segment {
  Phase phase = Phase::kClosed;
  size_t b0 = 0, b1 = 0;  ///< Batch range [b0, b1).
  double rate_tps = 0;    ///< Open loop: batch b is due at (b-b0)*64/rate.
};

/// A standing filter CQ on Ticks: optional sym equality plus a price range.
struct CacqQuery {
  int sym = -1;  ///< -1: no equality factor.
  double lo = 0, hi = 0;
  bool lo_inclusive = false;
};

/// A windowed query: per-symbol sliding AVG(price) over Ticks, or a
/// COUNT(*) equi-join of Ticks and Quotes on sym.
struct WindowQuery {
  bool join = false;
  int sym = 0;           ///< AVG: the symbol averaged.
  int64_t width = 0;     ///< Window covers [t - width + 1, t].
  double min_price = 0;  ///< Join: Ticks.price > min_price.
};

/// One query of a workload: its text plus the structured form the
/// reference evaluator reads (never the parsed text).
struct QueryDef {
  std::string sql;
  CacqQuery cacq;
  WindowQuery window;
};

/// Submit one query, cancel the previous churned one, at batch `batch`.
struct ChurnEvent {
  size_t batch = 0;
  QueryDef query;
};

/// One episode's input.
struct Input {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  size_t episode = 0;
  size_t num_streams = 1;
  std::vector<std::string> stream_names;
  std::vector<tcq::SchemaPtr> schemas;
  std::vector<std::vector<Row>> arrivals;  ///< Per stream, arrival order.
  std::vector<Batch> batches;              ///< Push order.
  std::vector<Segment> segments;           ///< Closed, light, heavy.
  std::vector<QueryDef> standing;
  std::vector<ChurnEvent> churn;
  /// CACQ: release_batch[seq] is the batch whose arrival released tuple
  /// `seq` of stream 0 from the reorder buffer (batches.size() = only the
  /// final heartbeat releases it).
  std::vector<uint32_t> release_batch;
  /// Per stream: highest timestamp pushed up to and including batch b.
  std::vector<std::vector<int64_t>> watermark_after;
  /// Standing queries whose every row the reference re-checks.
  std::vector<size_t> sampled;
  uint64_t hash = 0;  ///< FNV-1a of every generated row, batch and query.
};

/// Builds one episode's input from the seed.
Input Generate(const WorkloadSpec& spec, uint64_t seed, size_t episode);

/// The reorder-buffer release rule, computed independently of the engine:
/// an arrival raising the stream's high-water mark to M releases every
/// held tuple with ts <= M - max_disorder. `batch_of[i]` is the batch of
/// arrival i; returns, per arrival i, the batch whose arrival released it
/// (`final_batch` when nothing does before the final flush).
std::vector<uint32_t> ReleaseBatches(const std::vector<int64_t>& arrival_ts,
                                     const std::vector<uint32_t>& batch_of,
                                     int64_t max_disorder,
                                     uint32_t final_batch);

/// First batch after which every stream in `streams` has pushed a
/// timestamp > t: the arrival that makes window [.., t] final (windows
/// fire once the watermark passes their right end).
size_t WindowFinalBatch(const Input& in, const std::vector<int>& streams,
                        int64_t t);

/// Materializes batch `b` as engine tuples (ts, sym, price, seq).
std::vector<tcq::Tuple> MakeTuples(const Input& in, size_t b);

std::string SymbolName(uint32_t sym);

}  // namespace cqbench

#endif  // CQBENCH_WORKLOAD_H_
