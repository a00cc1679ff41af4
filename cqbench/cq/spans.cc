#include "cq/spans.h"

#include <algorithm>
#include <cstdio>

namespace cqbench {

int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = start;
  for (const auto& [lo, hi] : children) {
    if (hi <= lo) continue;
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return covered;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size() &&
        spans[static_cast<size_t>(s.parent)].thread == s.thread) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns -
              CoveredNs(spans[i].start_ns, spans[i].end_ns, std::move(kids[i]));
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<int64_t>& self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"batch\":%lld,\"parent\":%lld,"
                 "\"thread\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.batch),
                 static_cast<long long>(s.parent), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(i < self_ns.size() ? self_ns[i] : 0));
  }
  return std::fclose(f) == 0;
}

}  // namespace cqbench
