// In-memory spans for the traced benchmark run: recorded around the calls
// the benchmark makes into each layer, written out when the run ends.
#ifndef CQBENCH_SPANS_H_
#define CQBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cqbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. Spans of one input batch share `batch`; `parent` is the
/// index of the span that caused this one (-1: none). A result callback's
/// parent is the PushBatch of the batch that made the result final, also
/// when the callback runs on the sharded egress thread (`thread` 1).
struct Span {
  const char* name = "";
  int64_t batch = -1;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;  ///< 0: the producer; 1: the sharded egress thread.
};

/// Nanoseconds of [start, end] covered by the union of `children`
/// (intervals clipped to it; overlaps counted once).
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children);

/// Self time of every span: its duration minus the part of its interval
/// that its child spans on the same thread cover (a child on another
/// thread runs beside its parent, not inside it).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes one JSON object per span. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns);

}  // namespace cqbench

#endif  // CQBENCH_SPANS_H_
