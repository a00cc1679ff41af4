#include "cq/server_run.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "common/object_pool.h"
#include "core/server.h"
#include "cq/reference.h"
#include "telemetry/metrics.h"

namespace cqbench {

namespace {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double RssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Sleeps most of the way, then spins the last stretch: a sleep alone
/// overshoots, which would show as generator lateness, and spinning the
/// whole gap would take a core from the shard and egress threads.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 80000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 60000));
    }
  }
}

struct Recorder;

/// Per-query delivery state, owned by the run (stable address: the
/// callback holds a pointer to it).
struct Slot {
  Recorder* rec = nullptr;
  const QueryDef* def = nullptr;
  bool standing = false;
  bool keep = false;  ///< Keep rows for the reference check.
  std::vector<int> footprint;
  std::vector<int64_t> seqs;
  std::vector<WindowResult> windows;
  size_t b0 = 0, b1 = 0;  ///< Churn: batches pushed while active.
};

/// Callback-side state. Written only by whichever thread runs result
/// callbacks (the producer inline, the egress thread when sharded; the
/// server serializes them under its results lock) and read by the
/// producer after a Quiesce barrier.
struct Recorder {
  const Input* in = nullptr;
  bool traced = false;
  std::vector<int64_t> sched_ns;     ///< Open loop: when batch b was due.
  std::vector<uint8_t> open_phase;   ///< 0 closed, 1 light, 2 heavy.
  std::vector<uint32_t> window_of;   ///< Latency window of open batch b.
  /// Light, heavy: samples per latency window.
  std::array<std::vector<std::vector<float>>, 2> lat_us;
  uint64_t rows = 0;
  uint64_t standing_rows = 0;
  uint64_t bad_rows = 0;  ///< Rows the benchmark could not decode.
  std::vector<CallbackRecord> callbacks;

  void Latency(size_t batch, int64_t now) {
    if (batch >= open_phase.size() || open_phase[batch] == 0) return;
    lat_us[open_phase[batch] - 1][window_of[batch]].push_back(
        static_cast<float>(static_cast<double>(now - sched_ns[batch]) * 1e-3));
  }
};

void OnCacqResult(Slot* slot, const tcq::ResultSet& rs) {
  Recorder& r = *slot->rec;
  const int64_t now = NowNs();
  uint32_t first_batch = 0;
  for (const tcq::Tuple& row : rs.rows) {
    const tcq::Value& cell = row.cell(0);
    if (cell.type() != tcq::ValueType::kInt64 || cell.int64_value() < 0 ||
        static_cast<size_t>(cell.int64_value()) >= r.in->release_batch.size()) {
      ++r.bad_rows;
      continue;
    }
    const int64_t seq = cell.int64_value();
    const uint32_t rb = r.in->release_batch[static_cast<size_t>(seq)];
    first_batch = rb;
    r.Latency(rb, now);
    ++r.rows;
    if (slot->standing) ++r.standing_rows;
    if (slot->keep) slot->seqs.push_back(seq);
  }
  if (r.traced) {
    r.callbacks.push_back({first_batch, static_cast<uint32_t>(rs.rows.size()),
                           now, NowNs()});
  }
}

void OnWindowResult(Slot* slot, const tcq::ResultSet& rs) {
  Recorder& r = *slot->rec;
  const int64_t now = NowNs();
  const size_t fb = WindowFinalBatch(*r.in, slot->footprint, rs.t);
  r.Latency(fb, now);
  r.rows += rs.rows.size();
  if (slot->standing) r.standing_rows += rs.rows.size();
  WindowResult w;
  w.t = rs.t;
  if (rs.rows.size() != 1 || rs.rows[0].arity() != 1) {
    ++r.bad_rows;
  } else {
    const tcq::Value& v = rs.rows[0].cell(0);
    w.null = v.is_null();
    if (v.type() == tcq::ValueType::kInt64) {
      w.value = static_cast<double>(v.int64_value());
    } else if (v.type() == tcq::ValueType::kDouble) {
      w.value = v.double_value();
    }
  }
  if (slot->keep) slot->windows.push_back(w);
  if (r.traced) {
    r.callbacks.push_back({static_cast<uint32_t>(fb),
                           static_cast<uint32_t>(rs.rows.size()), now,
                           NowNs()});
  }
}

constexpr const char* kWatchedCounters[] = {
    "tcq.eddy.decisions",          "tcq.eddy.cache_hits",
    "tcq.eddy.cache_misses",       "tcq.eddy.visits",
    "tcq.grouped_filter.rebuilds", "tcq.disorder.late_within_bound",
    "tcq.server.delivered_rows",   "tcq.stem.probes",
};

}  // namespace

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  for (const char* n : kWatchedCounters) {
    out[n] = tcq::MetricRegistry::Global().GetCounter(n)->value();
  }
  // BlockPool keeps its own totals (published as gauges elsewhere).
  const tcq::BlockPool::Stats pool = tcq::BlockPool::GlobalStats();
  out["tcq.pool.hits"] = pool.hits;
  out["tcq.pool.misses"] = pool.misses;
  return out;
}

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& a,
    const std::map<std::string, uint64_t>& b) {
  std::map<std::string, uint64_t> out;
  for (const auto& [k, v] : b) {
    auto it = a.find(k);
    out[k] = v - (it == a.end() ? 0 : it->second);
  }
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

ServerRun RunServer(const Input& in, const ServerRunOptions& opts) {
  const WorkloadSpec& spec = *in.spec;
  const bool windowed = spec.kind == Kind::kWindowed;
  const size_t nb = in.batches.size();
  ServerRun out;

  Recorder rec;
  rec.in = &in;
  rec.traced = opts.traced;
  rec.sched_ns.assign(nb, 0);
  rec.open_phase.assign(nb, 0);
  rec.window_of.assign(nb, 0);
  const size_t window_batches = spec.churn_every;
  for (const Segment& seg : in.segments) {
    if (seg.phase == Phase::kClosed) continue;
    // A short remainder joins the last full window.
    const size_t windows =
        std::max<size_t>(1, (seg.b1 - seg.b0) / window_batches);
    for (size_t b = seg.b0; b < seg.b1; ++b) {
      rec.open_phase[b] = static_cast<uint8_t>(seg.phase);
      rec.window_of[b] = static_cast<uint32_t>(
          std::min((b - seg.b0) / window_batches, windows - 1));
    }
    // Sized up front: a vector doubling inside a callback would stall the
    // delivery path for milliseconds and show up as latency.
    auto& per_window = rec.lat_us[static_cast<size_t>(seg.phase) - 1];
    per_window.resize(windows);
    for (auto& w : per_window) {
      w.reserve((seg.b1 - seg.b0) / windows *
                    (windowed ? 8 : 4 * kBatchTuples) +
                1024);
    }
  }
  if (opts.traced) {
    rec.callbacks.reserve(windowed ? nb * 64 : nb * 256);
    out.spans.reserve(nb + 4 * in.churn.size() + 64);
    out.push_span.assign(nb + 1, -1);
  }

  auto span = [&](const char* name, int64_t batch, int64_t start) {
    if (!opts.traced) return;
    out.spans.push_back(Span{name, batch, -1, start, NowNs()});
  };
  auto check = [&](const tcq::Status& st) {
    ++out.attempted;
    if (!st.ok()) {
      ++out.failed;
      std::fprintf(stderr, "server call failed: %s\n", st.ToString().c_str());
    }
  };

  std::deque<Slot> slots;
  auto make_slot = [&](const QueryDef* def, bool standing) -> Slot* {
    Slot& s = slots.emplace_back();
    s.rec = &rec;
    s.def = def;
    s.standing = standing;
    if (windowed) {
      s.footprint = def->window.join ? std::vector<int>{0, 1}
                                     : std::vector<int>{0};
    }
    return &s;
  };
  auto set_callback = [&](tcq::Server* server, tcq::QueryId q, Slot* s) {
    const int64_t t0 = NowNs();
    if (windowed) {
      check(server->SetCallback(
          q, [s](const tcq::ResultSet& rs) { OnWindowResult(s, rs); }));
    } else {
      check(server->SetCallback(
          q, [s](const tcq::ResultSet& rs) { OnCacqResult(s, rs); }));
    }
    span("core.set_callback", -1, t0);
  };

  // ---- Setup, timed setup_reps times; the last server runs the input.
  std::unique_ptr<tcq::Server> server;
  tcq::Server::Options sopts;
  sopts.cacq_shards = spec.shards;
  sopts.max_disorder = spec.max_disorder;
  std::vector<Slot*> standing_slots;
  for (size_t rep = 0; rep < std::max<size_t>(1, opts.setup_reps); ++rep) {
    server.reset();
    slots.clear();
    standing_slots.clear();
    const int64_t t0 = NowNs();
    server = std::make_unique<tcq::Server>(sopts);
    for (size_t s = 0; s < in.num_streams; ++s) {
      check(server->DefineStream(in.stream_names[s], in.schemas[s], 0, 1));
    }
    for (size_t i = 0; i < in.standing.size(); ++i) {
      auto q = server->Submit(in.standing[i].sql);
      check(q.status());
      Slot* s = make_slot(&in.standing[i], true);
      standing_slots.push_back(s);
      if (q.ok()) set_callback(server.get(), *q, s);
    }
    out.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  for (size_t i : in.sampled) standing_slots[i]->keep = true;
  if (opts.traced) {
    out.spans.clear();  // Setup spans are not part of the traced input.
  }

  const double rss0 = RssMb();
  const auto counters0 = ReadCounters();

  // ---- Churn: Submit + Cancel of a workload-typed query.
  size_t churn_i = 0;
  bool churn_live = false;
  tcq::QueryId churn_q = 0;
  Slot* churn_slot = nullptr;
  auto do_churn = [&](size_t b) {
    while (churn_i < in.churn.size() && in.churn[churn_i].batch == b) {
      if (churn_live) {
        const int64_t t0 = NowNs();
        check(server->Cancel(churn_q));
        out.cancel_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        span("core.cancel", static_cast<int64_t>(b), t0);
        churn_slot->b1 = b;
        churn_live = false;
      }
      const int64_t t0 = NowNs();
      auto q = server->Submit(in.churn[churn_i].query.sql);
      out.submit_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      out.submit_phase.push_back(rec.open_phase[b]);
      span("core.submit", static_cast<int64_t>(b), t0);
      check(q.status());
      churn_slot = make_slot(&in.churn[churn_i].query, false);
      churn_slot->keep = true;
      churn_slot->b0 = b;
      churn_slot->b1 = nb + 1;
      if (q.ok()) {
        set_callback(server.get(), *q, churn_slot);
        churn_q = *q;
        churn_live = true;
      }
      ++out.churns;
      ++churn_i;
    }
  };
  auto push = [&](size_t b, std::vector<tcq::Tuple> tuples) {
    const size_t n = tuples.size();
    size_t rejected = 0;
    const int64_t t0 = NowNs();
    check(server->PushBatch(in.stream_names[in.batches[b].stream],
                            std::move(tuples), &rejected));
    if (opts.traced) {
      out.push_span[b] = static_cast<int64_t>(out.spans.size());
      span("core.push_batch", static_cast<int64_t>(b), t0);
    }
    out.tuples += n;
    out.attempted += n;
    out.failed += rejected;
    ++out.batches;
  };
  auto quiesce = [&](int64_t batch) {
    const int64_t t0 = NowNs();
    server->Quiesce();
    out.quiesce_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    span("core.quiesce", batch, t0);
  };
  auto build = [&](const Segment& seg) {
    std::vector<std::vector<tcq::Tuple>> batches;
    batches.reserve(seg.b1 - seg.b0);
    for (size_t b = seg.b0; b < seg.b1; ++b) batches.push_back(MakeTuples(in, b));
    return batches;
  };

  for (const Segment& seg : in.segments) {
    auto batches = build(seg);
    if (seg.phase == Phase::kClosed) {
      // Closed loop: timed from the first PushBatch to the delivery
      // barrier after the last.
      const auto c0 = ReadCounters();
      const double cpu0 = CpuSeconds();
      const int64_t t0 = NowNs();
      for (size_t b = seg.b0; b < seg.b1; ++b) {
        do_churn(b);
        push(b, std::move(batches[b - seg.b0]));
      }
      quiesce(static_cast<int64_t>(seg.b1 - 1));
      const int64_t t1 = NowNs();
      out.closed_cpu_s += CpuSeconds() - cpu0;
      for (const auto& [k, v] : Delta(c0, ReadCounters())) {
        out.closed_delta[k] += v;
      }
      const uint64_t n = (seg.b1 - seg.b0) * kBatchTuples;
      const double wall_s = static_cast<double>(t1 - t0) * 1e-9;
      out.closed_tuples += n;
      out.closed_wall_s += wall_s;
      continue;
    }
    // Open loop: batch b is due at a fixed offset from the stretch's
    // start, whether or not the engine kept up.
    const size_t ph = seg.phase == Phase::kLight ? 0 : 1;
    const double interval_ns = static_cast<double>(kBatchTuples) * 1e9 /
                               seg.rate_tps;
    const int64_t start = NowNs() + 2000000;
    for (size_t b = seg.b0; b < seg.b1; ++b) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(b - seg.b0) *
                                       interval_ns);
      rec.sched_ns[b] = due;
      WaitUntil(due);
      out.send_late_us[ph].push_back(static_cast<double>(NowNs() - due) *
                                     1e-3);
      do_churn(b);
      push(b, std::move(batches[b - seg.b0]));
    }
    quiesce(static_cast<int64_t>(seg.b1 - 1));
  }

  // ---- Drain: punctuate every stream past its last arrival so the
  // reorder buffer releases what it still holds, then barrier.
  for (size_t s = 0; s < in.num_streams; ++s) {
    const int64_t t0 = NowNs();
    check(server->Heartbeat(in.stream_names[s], in.watermark_after[s][nb - 1]));
    if (opts.traced) {
      out.push_span[nb] = static_cast<int64_t>(out.spans.size());
      span("core.heartbeat", static_cast<int64_t>(nb), t0);
    }
  }
  quiesce(static_cast<int64_t>(nb));
  out.rss_growth_mb = RssMb() - rss0;
  out.run_delta = Delta(counters0, ReadCounters());
  {
    const std::string snap = server->SnapshotMetrics();
    const std::string key = "\"history\":{\"resident\":";
    for (size_t pos = snap.find(key); pos != std::string::npos;
         pos = snap.find(key, pos + 1)) {
      out.history_resident +=
          std::strtoull(snap.c_str() + pos + key.size(), nullptr, 10);
    }
  }

  for (size_t ph = 0; ph < 2; ++ph) {
    std::vector<double> pooled;
    for (const auto& w : rec.lat_us[ph]) {
      if (w.empty()) continue;
      const std::vector<double> v(w.begin(), w.end());
      out.lat_samples[ph] += v.size();
      out.lat_p50_us[ph].push_back(Percentile(v, 0.50));
      out.lat_p99_us[ph].push_back(Percentile(v, 0.99));
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
    out.lat_p99_pooled_us[ph] = Percentile(std::move(pooled), 0.99);
  }

  // ---- Reference check (after the timed phases).
  out.rows = rec.rows;
  out.standing_rows = rec.standing_rows;
  uint64_t wrong = rec.bad_rows;
  uint64_t checked = 0;
  if (!windowed) {
    const std::vector<Row> by_seq = RowsBySeq(in.arrivals[0]);
    for (const Slot& s : slots) {
      if (!s.keep) continue;
      checked += s.seqs.size();
      wrong += s.standing
                   ? CheckCacqExact(s.def->cacq, by_seq, s.seqs)
                   : CheckCacqSubset(s.def->cacq, by_seq, in.release_batch,
                                     s.b0, s.b1, s.seqs);
    }
  } else {
    const std::vector<Row> ticks = RowsBySeq(in.arrivals[0]);
    const std::vector<Row> quotes = RowsBySeq(in.arrivals[1]);
    for (const Slot& s : slots) {
      if (!s.keep) continue;
      checked += s.windows.size();
      int64_t wm = INT64_MAX;
      for (int f : s.footprint) {
        wm = std::min(wm, in.watermark_after[static_cast<size_t>(f)][nb - 1]);
      }
      // Windows t = 1 + k*hop fire once the watermark passes t.
      const int64_t last_t = 1 + (wm - 2) / kWindowHop * kWindowHop;
      wrong += CheckWindows(s.def->window, ticks, quotes, s.windows,
                            s.standing, 1, last_t);
    }
  }
  // Every row the server counted as delivered reached a callback.
  const uint64_t counted = out.run_delta["tcq.server.delivered_rows"];
  ++checked;
  if (counted != rec.rows) {
    std::fprintf(stderr,
                 "delivered_rows counter %llu != rows called back %llu\n",
                 static_cast<unsigned long long>(counted),
                 static_cast<unsigned long long>(rec.rows));
    ++wrong;
  }
  out.attempted += checked;
  out.failed += wrong;

  if (opts.traced) {
    out.callbacks = std::move(rec.callbacks);
    // A result cannot precede the arrival that made it final; inline it
    // is delivered inside that very PushBatch.
    for (const CallbackRecord& cb : out.callbacks) {
      const int64_t p = out.push_span[std::min<size_t>(cb.batch, nb)];
      if (p < 0) continue;
      const Span& ps = out.spans[static_cast<size_t>(p)];
      if (cb.start_ns < ps.start_ns ||
          (spec.shards == 1 && cb.end_ns > ps.end_ns)) {
        ++out.arrival_violations;
      }
    }
  }
  server.reset();
  return out;
}

}  // namespace cqbench
