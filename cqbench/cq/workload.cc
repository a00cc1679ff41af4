#include "cq/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

namespace cqbench {

namespace {

// Rates: about 20% / 55% of each workload's closed-loop throughput_tps on
// the reference host (4 vCPUs; README.md). They stay fixed so a faster
// engine shows as lower latency at the same offered load.
const WorkloadSpec kWorkloads[] = {
    {"cacq_inline", Kind::kCacq, 1, 64, 98304, 70000, 190000, 0.65, 64},
    {"cacq_sharded", Kind::kCacq, 2, 64, 98304, 130000, 390000, 0.65, 64},
    {"windowed", Kind::kWindowed, 1, 0, 16384, 4700, 14000, 0.75, 8},
};

/// splitmix64: the generator's only source of randomness, identical on
/// every platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Draw(Rng* rng) const {
    const double u = rng->Uniform();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void Add(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Add(&v, sizeof(v));
  }
};

/// Prices in [10, 1000) with cent resolution; range constants sit on
/// half-units so a boundary tie is rare but still handled identically.
double Price(Rng* rng) {
  return 10.0 + std::round(rng->Uniform() * 99000.0) / 100.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

constexpr const char* kForLoop =
    " for (t = ST; t < ST + 1000000000; t += 64) { ";

QueryDef CacqDef(const CacqQuery& q) {
  QueryDef d;
  d.cacq = q;
  if (q.sym >= 0) {
    d.sql = "SELECT seq, price FROM Ticks WHERE sym = '" +
            SymbolName(static_cast<uint32_t>(q.sym)) + "' AND price > " +
            Num(q.lo) + " AND price < " + Num(q.hi);
  } else {
    d.sql = "SELECT seq FROM Ticks WHERE price " +
            std::string(q.lo_inclusive ? ">= " : "> ") + Num(q.lo) +
            " AND price < " + Num(q.hi);
  }
  return d;
}

QueryDef WindowDef(const WindowQuery& q) {
  QueryDef d;
  d.window = q;
  const std::string left = "t - " + std::to_string(q.width - 1);
  if (q.join) {
    d.sql = "SELECT COUNT(*) FROM Ticks AS T, Quotes AS Q WHERE T.sym = "
            "Q.sym AND T.price > " +
            Num(q.min_price) + kForLoop + "WindowIs(T, " + left +
            ", t); WindowIs(Q, " + left + ", t); }";
  } else {
    d.sql = "SELECT AVG(price) FROM Ticks WHERE sym = '" +
            SymbolName(static_cast<uint32_t>(q.sym)) + "'" + kForLoop +
            "WindowIs(Ticks, " + left + ", t); }";
  }
  return d;
}

/// Equality + price range (the 768 of them match ~0.75 rows per tuple) or a
/// narrow pure range (~1% of tuples each).
CacqQuery RandomCacq(Rng* rng, bool eq, const Zipf* hot) {
  CacqQuery q;
  if (eq) {
    q.sym = static_cast<int>(hot != nullptr ? hot->Draw(rng)
                                            : rng->Below(kNumSymbols));
    q.lo = 10.5 + static_cast<double>(rng->Below(500));
    q.hi = q.lo + 200.0 + static_cast<double>(rng->Below(600));
  } else {
    q.lo = 10.5 + static_cast<double>(rng->Below(980));
    q.hi = q.lo + 10.0;
    q.lo_inclusive = rng->Below(2) == 0;
  }
  return q;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) out.push_back(w.name);
  return out;
}

std::string SymbolName(uint32_t sym) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "S%03u", sym);
  return buf;
}

std::vector<uint32_t> ReleaseBatches(const std::vector<int64_t>& arrival_ts,
                                     const std::vector<uint32_t>& batch_of,
                                     int64_t max_disorder,
                                     uint32_t final_batch) {
  std::vector<uint32_t> out(arrival_ts.size(), final_batch);
  // Held arrivals keyed by (ts, arrival index): timestamp order, ties in
  // arrival order — the release order the engine promises.
  std::set<std::pair<int64_t, size_t>> held;
  int64_t raw = INT64_MIN;
  for (size_t i = 0; i < arrival_ts.size(); ++i) {
    held.emplace(arrival_ts[i], i);
    raw = std::max(raw, arrival_ts[i]);
    while (!held.empty() && held.begin()->first <= raw - max_disorder) {
      out[held.begin()->second] = batch_of[i];
      held.erase(held.begin());
    }
  }
  return out;
}

size_t WindowFinalBatch(const Input& in, const std::vector<int>& streams,
                        int64_t t) {
  size_t final_batch = 0;
  for (int s : streams) {
    const std::vector<int64_t>& wm = in.watermark_after[static_cast<size_t>(s)];
    const size_t b = static_cast<size_t>(
        std::upper_bound(wm.begin(), wm.end(), t) - wm.begin());
    final_batch = std::max(final_batch, b);
  }
  return final_batch;
}

std::vector<tcq::Tuple> MakeTuples(const Input& in, size_t b) {
  const Batch& batch = in.batches[b];
  const std::vector<Row>& rows = in.arrivals[batch.stream];
  std::vector<tcq::Tuple> out;
  out.reserve(batch.end - batch.begin);
  for (uint32_t i = batch.begin; i < batch.end; ++i) {
    const Row& r = rows[i];
    out.push_back(tcq::Tuple::Make(
        {tcq::Value::Int64(r.ts), tcq::Value::String(SymbolName(r.sym)),
         tcq::Value::Double(r.price), tcq::Value::Int64(r.seq)},
        r.ts));
  }
  return out;
}

size_t TimedEpisodes(double seconds) {
  return std::max<size_t>(3, static_cast<size_t>(seconds / kEpisodeSeconds));
}

Input Generate(const WorkloadSpec& spec, uint64_t seed, size_t episode) {
  Input in;
  in.spec = &spec;
  in.seed = seed;
  in.episode = episode;
  Rng rng(seed * 0x2545F4914F6CDD1Dull + episode * 0x9E3779B97F4A7C15ull +
          0x1234567ull);
  const Zipf zipf(kNumSymbols, kZipfS);
  const bool windowed = spec.kind == Kind::kWindowed;
  in.num_streams = windowed ? 2 : 1;
  in.stream_names = windowed ? std::vector<std::string>{"Ticks", "Quotes"}
                             : std::vector<std::string>{"Ticks"};
  for (size_t s = 0; s < in.num_streams; ++s) {
    in.schemas.push_back(tcq::Schema::Make({
        {"ts", tcq::ValueType::kInt64, ""},
        {"sym", tcq::ValueType::kString, ""},
        {"price", tcq::ValueType::kDouble, ""},
        {"seq", tcq::ValueType::kInt64, ""},
    }));
  }

  // Phase sizes in batches. Windowed batches alternate Ticks / Quotes, so
  // every phase holds an even number of them.
  const size_t per_pair = in.num_streams;
  auto round_batches = [&](double tuples) {
    size_t b = static_cast<size_t>(std::ceil(tuples / kBatchTuples));
    b = std::max<size_t>(b, 2 * per_pair);
    return (b + per_pair - 1) / per_pair * per_pair;
  };
  // One closed-loop segment, then the light and the heavy stretch.
  size_t next = 0;
  for (Phase p : {Phase::kClosed, Phase::kLight, Phase::kHeavy}) {
    const double rate = p == Phase::kLight   ? spec.light_tps
                        : p == Phase::kHeavy ? spec.heavy_tps
                                             : 0;
    const size_t n = round_batches(
        p == Phase::kClosed ? static_cast<double>(spec.segment_tuples)
                            : rate * spec.open_seconds);
    in.segments.push_back({p, next, next + n, rate});
    next += n;
  }
  const size_t num_batches = next;

  // Rows per stream in timestamp order, then batches in push order.
  std::vector<size_t> per_stream(in.num_streams, 0);
  for (size_t b = 0; b < num_batches; ++b) {
    const uint8_t s = static_cast<uint8_t>(b % in.num_streams);
    in.batches.push_back(Batch{s, static_cast<uint32_t>(per_stream[s]),
                               static_cast<uint32_t>(per_stream[s] +
                                                     kBatchTuples)});
    per_stream[s] += kBatchTuples;
  }
  in.arrivals.resize(in.num_streams);
  for (size_t s = 0; s < in.num_streams; ++s) {
    std::vector<Row> rows(per_stream[s]);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].seq = static_cast<int64_t>(i);
      rows[i].ts = static_cast<int64_t>(i) + 1;
      rows[i].sym = zipf.Draw(&rng);
      rows[i].price = Price(&rng);
    }
    if (spec.max_disorder > 0) {
      // Bounded disorder: a share of tuples arrives up to max_disorder
      // positions late. With one timestamp unit per tuple a tuple delayed
      // d <= max_disorder positions is never below the released frontier,
      // so no arrival is beyond the bound and none is rejected.
      std::vector<std::pair<uint64_t, size_t>> key(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        uint64_t pos = i;
        bool late = false;
        if (rng.Uniform() < kDisplacedShare) {
          pos += 1 + rng.Below(static_cast<uint64_t>(spec.max_disorder));
          late = true;
        }
        key[i] = {pos * 2 + (late ? 1 : 0), i};
      }
      std::stable_sort(key.begin(), key.end());
      std::vector<Row> arrived(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) arrived[i] = rows[key[i].second];
      rows = std::move(arrived);
    }
    in.arrivals[s] = std::move(rows);
  }

  in.watermark_after.assign(in.num_streams,
                            std::vector<int64_t>(num_batches, INT64_MIN));
  std::vector<int64_t> wm(in.num_streams, INT64_MIN);
  for (size_t b = 0; b < num_batches; ++b) {
    const Batch& batch = in.batches[b];
    for (uint32_t i = batch.begin; i < batch.end; ++i) {
      wm[batch.stream] =
          std::max(wm[batch.stream], in.arrivals[batch.stream][i].ts);
    }
    for (size_t s = 0; s < in.num_streams; ++s) in.watermark_after[s][b] = wm[s];
  }

  if (!windowed) {
    const std::vector<Row>& rows = in.arrivals[0];
    std::vector<int64_t> ts(rows.size());
    std::vector<uint32_t> batch_of(rows.size());
    for (size_t b = 0; b < num_batches; ++b) {
      for (uint32_t i = in.batches[b].begin; i < in.batches[b].end; ++i) {
        batch_of[i] = static_cast<uint32_t>(b);
      }
    }
    for (size_t i = 0; i < rows.size(); ++i) ts[i] = rows[i].ts;
    const std::vector<uint32_t> rel =
        ReleaseBatches(ts, batch_of, spec.max_disorder,
                       static_cast<uint32_t>(num_batches));
    in.release_batch.assign(rows.size(), static_cast<uint32_t>(num_batches));
    for (size_t i = 0; i < rows.size(); ++i) {
      in.release_batch[static_cast<size_t>(rows[i].seq)] = rel[i];
    }
  }

  // Queries: 768 sym-equality + price-range CQs and 256 narrow ranges
  // (CACQ), or 64 per-symbol sliding AVGs and 8 windowed equi-joins.
  if (!windowed) {
    for (size_t q = 0; q < 1024; ++q) {
      in.standing.push_back(CacqDef(RandomCacq(&rng, q < 768, nullptr)));
    }
    for (size_t q = 0; q < 32; ++q) in.sampled.push_back(rng.Below(1024));
    std::sort(in.sampled.begin(), in.sampled.end());
    in.sampled.erase(std::unique(in.sampled.begin(), in.sampled.end()),
                     in.sampled.end());
  } else {
    for (int q = 0; q < 64; ++q) {
      WindowQuery w;
      w.sym = q * 8 + static_cast<int>(rng.Below(8));
      w.width = q % 2 == 0 ? 128 : 256;
      in.standing.push_back(WindowDef(w));
    }
    const double floors[] = {0.0, 505.5, 755.5, 905.5};
    for (int j = 0; j < 8; ++j) {
      WindowQuery w;
      w.join = true;
      w.width = j < 4 ? 64 : 128;
      w.min_price = floors[j % 4];
      in.standing.push_back(WindowDef(w));
    }
    for (size_t q = 0; q < in.standing.size(); ++q) in.sampled.push_back(q);
  }
  for (size_t b = spec.churn_every; b < num_batches; b += spec.churn_every) {
    ChurnEvent ev;
    ev.batch = b;
    if (windowed) {
      WindowQuery w;
      w.sym = static_cast<int>(zipf.Draw(&rng));
      w.width = 128;
      ev.query = WindowDef(w);
    } else {
      ev.query = CacqDef(RandomCacq(&rng, true, &zipf));
    }
    in.churn.push_back(std::move(ev));
  }

  Fnv h;
  for (size_t s = 0; s < in.num_streams; ++s) {
    for (const Row& r : in.arrivals[s]) {
      h.Pod(r.ts);
      h.Pod(r.seq);
      h.Pod(r.price);
      h.Pod(r.sym);
    }
  }
  for (const Batch& b : in.batches) {
    h.Pod(b.stream);
    h.Pod(b.begin);
  }
  for (const QueryDef& q : in.standing) h.Add(q.sql.data(), q.sql.size());
  for (const ChurnEvent& c : in.churn) {
    h.Pod(c.batch);
    h.Add(c.query.sql.data(), c.query.sql.size());
  }
  in.hash = h.h;
  return in;
}

}  // namespace cqbench
