#include "cq/reference.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cqbench {

bool CacqMatches(const CacqQuery& q, const Row& r) {
  if (q.sym >= 0 && r.sym != static_cast<uint32_t>(q.sym)) return false;
  const bool above = q.lo_inclusive ? r.price >= q.lo : r.price > q.lo;
  return above && r.price < q.hi;
}

std::vector<Row> RowsBySeq(const std::vector<Row>& arrivals) {
  std::vector<Row> out(arrivals.size());
  for (const Row& r : arrivals) out[static_cast<size_t>(r.seq)] = r;
  return out;
}

namespace {

/// Counts rows in `delivered` (sorted in place) that are not in `expected`
/// (sorted, unique), plus duplicates, plus expected rows never delivered.
size_t Diff(std::vector<int64_t> expected, std::vector<int64_t>* delivered,
            bool missing_counts) {
  std::sort(delivered->begin(), delivered->end());
  size_t wrong = 0;
  size_t i = 0, j = 0;
  while (i < expected.size() || j < delivered->size()) {
    if (j < delivered->size() && j > 0 &&
        (*delivered)[j] == (*delivered)[j - 1]) {
      ++wrong;  // Duplicate delivery.
      ++j;
    } else if (j == delivered->size() ||
               (i < expected.size() && expected[i] < (*delivered)[j])) {
      if (missing_counts) ++wrong;
      ++i;
    } else if (i == expected.size() || (*delivered)[j] < expected[i]) {
      ++wrong;  // Delivered but not a correct result.
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return wrong;
}

}  // namespace

size_t CheckCacqExact(const CacqQuery& q, const std::vector<Row>& by_seq,
                      std::vector<int64_t> delivered) {
  std::vector<int64_t> expected;
  for (const Row& r : by_seq) {
    if (CacqMatches(q, r)) expected.push_back(r.seq);
  }
  return Diff(std::move(expected), &delivered, true);
}

size_t CheckCacqSubset(const CacqQuery& q, const std::vector<Row>& by_seq,
                       const std::vector<uint32_t>& release_batch, size_t b0,
                       size_t b1, std::vector<int64_t> delivered) {
  std::vector<int64_t> allowed;
  for (const Row& r : by_seq) {
    const uint32_t rb = release_batch[static_cast<size_t>(r.seq)];
    if (rb >= b0 && rb < b1 && CacqMatches(q, r)) allowed.push_back(r.seq);
  }
  return Diff(std::move(allowed), &delivered, false);
}

WindowResult ReferenceWindow(const WindowQuery& q,
                             const std::vector<Row>& ticks,
                             const std::vector<Row>& quotes, int64_t t) {
  WindowResult out;
  out.t = t;
  const int64_t lo = std::max<int64_t>(1, t - q.width + 1);
  // Rows are indexed by seq = ts - 1.
  auto in_window = [&](const std::vector<Row>& rows, auto&& fn) {
    for (int64_t ts = lo; ts <= t; ++ts) {
      if (ts - 1 >= static_cast<int64_t>(rows.size())) break;
      fn(rows[static_cast<size_t>(ts - 1)]);
    }
  };
  if (q.join) {
    std::unordered_map<uint32_t, int64_t> quotes_per_sym;
    in_window(quotes, [&](const Row& r) { ++quotes_per_sym[r.sym]; });
    int64_t count = 0;
    in_window(ticks, [&](const Row& r) {
      if (r.price <= q.min_price) return;
      auto it = quotes_per_sym.find(r.sym);
      if (it != quotes_per_sym.end()) count += it->second;
    });
    out.value = static_cast<double>(count);
    return out;
  }
  double sum = 0;
  int64_t n = 0;
  in_window(ticks, [&](const Row& r) {
    if (r.sym != static_cast<uint32_t>(q.sym)) return;
    sum += r.price;
    ++n;
  });
  out.null = n == 0;
  out.value = n == 0 ? 0 : sum / static_cast<double>(n);
  return out;
}

size_t CheckWindows(const WindowQuery& q, const std::vector<Row>& ticks,
                    const std::vector<Row>& quotes,
                    const std::vector<WindowResult>& delivered,
                    bool expect_all, int64_t first_t, int64_t last_t) {
  size_t wrong = 0;
  for (const WindowResult& got : delivered) {
    const WindowResult want = ReferenceWindow(q, ticks, quotes, got.t);
    if (got.null != want.null) {
      ++wrong;
    } else if (!got.null &&
               std::fabs(got.value - want.value) >
                   1e-9 * std::max(1.0, std::fabs(want.value))) {
      ++wrong;
    }
  }
  if (expect_all) {
    // Each instant first_t + k*hop <= last_t exactly once, in order.
    int64_t t = first_t;
    size_t i = 0;
    for (; t <= last_t; t += kWindowHop, ++i) {
      if (i >= delivered.size() || delivered[i].t != t) {
        ++wrong;
        break;
      }
    }
    if (i < delivered.size()) wrong += delivered.size() - i;
  }
  return wrong;
}

}  // namespace cqbench
