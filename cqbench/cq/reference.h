// Naive reference semantics for the benchmark's outputs: the paper's
// "sequence of sets per instant t" (§4.1) recomputed by brute force from
// the generated rows, independent of the engine's parser, eddy, filter
// index and window runner.
#ifndef CQBENCH_REFERENCE_H_
#define CQBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "cq/workload.h"

namespace cqbench {

bool CacqMatches(const CacqQuery& q, const Row& r);

/// Rows of one stream indexed by seq (ts == seq + 1).
std::vector<Row> RowsBySeq(const std::vector<Row>& arrivals);

/// Exact check of one standing CACQ query over the whole run: every
/// matching tuple delivered exactly once, nothing else. Returns the number
/// of wrong rows (missing + unexpected + duplicate).
size_t CheckCacqExact(const CacqQuery& q, const std::vector<Row>& by_seq,
                      std::vector<int64_t> delivered);

/// Check of a churned CACQ query active while batches [b0, b1) were
/// pushed: every delivered row is a matching tuple released in that
/// interval, delivered once. Returns the number of wrong rows.
size_t CheckCacqSubset(const CacqQuery& q, const std::vector<Row>& by_seq,
                       const std::vector<uint32_t>& release_batch, size_t b0,
                       size_t b1, std::vector<int64_t> delivered);

/// One delivered (or expected) window result of a windowed query.
struct WindowResult {
  int64_t t = 0;
  bool null = false;
  double value = 0;  ///< AVG(price), or the join's COUNT(*).
};

/// Brute-force value of window [t - width + 1, t] of query q over the
/// per-stream rows indexed by seq.
WindowResult ReferenceWindow(const WindowQuery& q,
                             const std::vector<Row>& ticks,
                             const std::vector<Row>& quotes, int64_t t);

/// Compares every delivered window with the reference. With `expect_all`
/// the delivered instants must also be exactly first_t, first_t + hop, ...
/// up to last_t. Returns the number of wrong windows.
size_t CheckWindows(const WindowQuery& q, const std::vector<Row>& ticks,
                    const std::vector<Row>& quotes,
                    const std::vector<WindowResult>& delivered,
                    bool expect_all, int64_t first_t, int64_t last_t);

}  // namespace cqbench

#endif  // CQBENCH_REFERENCE_H_
