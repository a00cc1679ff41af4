#include "cq/ladder.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "cacq/engine.h"
#include "cacq/sharded_engine.h"
#include "core/analyzer.h"
#include "core/runner.h"
#include "cq/server_run.h"
#include "ingress/wrapper.h"
#include "modules/grouped_filter.h"
#include "telemetry/metrics.h"

namespace cqbench {

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Times fn() as one span of `batch`; returns its nanoseconds.
template <typename Fn>
int64_t Timed(std::vector<Span>* spans, const char* name, size_t batch,
              Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  spans->push_back(Span{name, static_cast<int64_t>(batch), -1, t0, t1});
  return t1 - t0;
}

void RegisterStreams(const Input& in, tcq::Catalog* cat) {
  for (size_t s = 0; s < in.num_streams; ++s) {
    tcq::StreamDef def;
    def.name = in.stream_names[s];
    def.schema = in.schemas[s];
    def.timestamp_field = 0;
    (void)cat->RegisterStream(def);
  }
}

}  // namespace

LadderResult RunLadder(const Input& in) {
  const WorkloadSpec& spec = *in.spec;
  const bool windowed = spec.kind == Kind::kWindowed;
  LadderResult out;
  const size_t end = in.batches.size();
  tcq::Catalog catalog;
  RegisterStreams(in, &catalog);
  // The whole episode is replayed (the row check covers all of it); times
  // per tuple are taken over the closed-loop segment, the batches the
  // Server run's push_batch_self covers.
  const Segment& closed = in.segments[0];
  auto is_closed = [&](size_t b) { return b >= closed.b0 && b < closed.b1; };
  const double timed_tuples =
      static_cast<double>((closed.b1 - closed.b0) * kBatchTuples);
  auto timed = [&](const char* name, size_t b, auto&& fn) -> int64_t {
    const int64_t ns = Timed(&out.spans, name, b, fn);
    return is_closed(b) ? ns : 0;
  };

  // parser + core/analyzer: the standing query texts.
  {
    std::vector<double> us;
    for (const QueryDef& q : in.standing) {
      const int64_t t0 = NowNs();
      auto aq = tcq::AnalyzeSql(q.sql, catalog);
      us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      (void)aq;
    }
    out.analyze_us = Median(us);
  }

  // ingress: ReorderBuffer::Offer over the replayed arrivals.
  std::vector<std::vector<tcq::Tuple>> released(end);
  {
    std::vector<std::vector<tcq::Tuple>> batches;
    for (size_t b = 0; b < end; ++b) batches.push_back(MakeTuples(in, b));
    std::vector<tcq::ReorderBuffer> reorder(in.num_streams);
    for (auto& r : reorder) r.set_max_disorder(spec.max_disorder);
    int64_t ns = 0;
    for (size_t b = 0; b < end; ++b) {
      tcq::ReorderBuffer& r = reorder[in.batches[b].stream];
      out.tuples += batches[b].size();
      ns += timed("ingress.reorder", b, [&] {
        for (tcq::Tuple& t : batches[b]) r.Offer(std::move(t), &released[b]);
      });
      out.buffered_max =
          std::max(out.buffered_max, static_cast<double>(r.buffered()));
    }
    // What the replay leaves buffered is released by a final flush (in the
    // Server run: by later arrivals); keep it in the replay.
    for (size_t s = 0; s < in.num_streams; ++s) {
      for (size_t b = end; b-- > 0;) {
        if (in.batches[b].stream == s) {
          reorder[s].Flush(&released[b]);
          break;
        }
      }
    }
    out.reorder_ns_per_tuple = static_cast<double>(ns) / timed_tuples;
  }

  // ingress: Archive::Append of the released feed (windowed: interleaved
  // with the window runners below, which scan these archives).
  std::vector<tcq::Archive> archives(in.num_streams);
  if (!windowed) {
    int64_t ns = 0;
    for (size_t b = 0; b < end; ++b) {
      tcq::Archive& a = archives[in.batches[b].stream];
      ns += timed("ingress.archive_append", b, [&] {
        for (const tcq::Tuple& t : released[b]) a.Append(t);
      });
    }
    out.archive_append_ns_per_tuple = static_cast<double>(ns) / timed_tuples;
  }

  if (!windowed) {
    // cacq/eddy/modules: the shared engine with the standing queries.
    std::vector<tcq::CacqQuerySpec> specs;
    for (const QueryDef& q : in.standing) {
      auto aq = tcq::AnalyzeSql(q.sql, catalog);
      if (!aq.ok()) continue;
      tcq::CacqQuerySpec cs;
      cs.sources = {in.stream_names[0]};
      cs.where = aq->parsed.where;
      specs.push_back(std::move(cs));
    }
    {
      tcq::CacqEngine engine;
      (void)engine.AddStream(in.stream_names[0], in.schemas[0]);
      uint64_t rows = 0;
      engine.SetSink([&rows](tcq::QueryId, const tcq::Tuple&) { ++rows; });
      for (const auto& cs : specs) (void)engine.AddQuery(cs);
      int64_t ns = 0;
      for (size_t b = 0; b < end; ++b) {
        ns += timed("cacq.inject", b, [&] {
          (void)engine.InjectBatch(in.stream_names[0], released[b],
                                   tcq::IngressLane::kDelayed);
        });
      }
      out.inject_ns_per_tuple = static_cast<double>(ns) / timed_tuples;
      if (spec.shards == 1) out.rows = rows;
    }

    // modules: the two grouped filters (sym, price) on their own.
    {
      tcq::GroupedFilter by_sym, by_price;
      auto add = [&](tcq::QueryId q, const CacqQuery& c) {
        if (c.sym >= 0) {
          by_sym.AddPredicate(q, tcq::BinaryOp::kEq,
                              tcq::Value::String(SymbolName(
                                  static_cast<uint32_t>(c.sym))));
        }
        by_price.AddPredicate(
            q, c.lo_inclusive ? tcq::BinaryOp::kGe : tcq::BinaryOp::kGt,
            tcq::Value::Double(c.lo));
        by_price.AddPredicate(q, tcq::BinaryOp::kLt, tcq::Value::Double(c.hi));
      };
      for (size_t q = 0; q < in.standing.size(); ++q) {
        add(static_cast<tcq::QueryId>(q), in.standing[q].cacq);
      }
      tcq::SmallBitset cand(in.standing.size());
      const tcq::Value probe_sym = tcq::Value::String(SymbolName(0));
      const tcq::Value probe_price = tcq::Value::Double(500.0);
      cand.SetAll();
      by_sym.Apply(probe_sym, &cand);  // Compile both indexes untimed.
      by_price.Apply(probe_price, &cand);
      uint64_t pass = 0;
      int64_t ns = 0;
      for (size_t b = 0; b < end; ++b) {
        ns += timed("modules.grouped_filter", b, [&] {
          for (const tcq::Tuple& t : released[b]) {
            cand.SetAll();
            by_sym.Apply(t.cell(1), &cand);
            by_price.Apply(t.cell(2), &cand);
            pass += cand.Count();
          }
        });
      }
      out.grouped_filter_ns_per_tuple = static_cast<double>(ns) / timed_tuples;
      out.grouped_filter_pass_ratio =
          static_cast<double>(pass) /
          (static_cast<double>(out.tuples) *
           static_cast<double>(in.standing.size()));
      // Churn: one registration and one removal, each followed by the
      // Apply that recompiles the index.
      std::vector<double> us;
      const size_t n = std::min<size_t>(in.churn.size(), 64);
      for (size_t c = 0; c < n; ++c) {
        const tcq::QueryId q =
            static_cast<tcq::QueryId>(in.standing.size() + c);
        add(q, in.churn[c].query.cacq);
        tcq::SmallBitset wide(q + 1);
        for (int pass_no = 0; pass_no < 2; ++pass_no) {
          wide.SetAll();
          const int64_t t0 = NowNs();
          by_sym.Apply(probe_sym, &wide);
          by_price.Apply(probe_price, &wide);
          us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
          by_sym.RemoveQuery(q);
          by_price.RemoveQuery(q);
        }
      }
      out.grouped_filter_rebuild_us = Median(us);
    }

    // exchange: ShardedEngine scatter (producer side) plus the drain.
    if (spec.shards > 1) {
      tcq::ShardedEngine::Options so;
      so.num_shards = spec.shards;
      tcq::ShardedEngine engine(so);
      (void)engine.AddStream(in.stream_names[0], in.schemas[0], 1);
      std::atomic<uint64_t> rows{0};
      engine.SetSink([&rows](std::vector<tcq::ShardedEngine::Emission>&& e) {
        rows.fetch_add(e.size(), std::memory_order_relaxed);
      });
      engine.Start();
      for (const auto& cs : specs) (void)engine.AddQuery(cs);
      // The replay outruns the shards, so PushBatch also waits for queue
      // space: the scatter row is the producer thread's CPU time, and the
      // rest of the PushBatch wall time is backpressure.
      int64_t wall_ns = 0, cpu_ns = 0;
      size_t depth_max = 0;
      for (size_t b = 0; b < end; ++b) {
        std::vector<tcq::Tuple> copy = released[b];
        const int64_t cpu0 = ThreadCpuNs();
        wall_ns += timed("exchange.scatter", b, [&] {
          (void)engine.PushBatch(in.stream_names[0], std::move(copy),
                                 tcq::IngressLane::kDelayed);
        });
        if (is_closed(b)) cpu_ns += ThreadCpuNs() - cpu0;
        if (b % 8 == 0) {
          for (const auto& st : engine.shard_stats()) {
            depth_max = std::max(depth_max, st.queue_depth);
          }
        }
      }
      Timed(&out.spans, "exchange.quiesce", end,
            [&] { (void)engine.Quiesce(); });
      out.scatter_ns_per_tuple = static_cast<double>(cpu_ns) / timed_tuples;
      out.producer_blocked_ratio =
          wall_ns > 0 ? std::max<double>(0.0, 1.0 - static_cast<double>(cpu_ns) /
                                                        static_cast<double>(wall_ns))
                      : 0;
      out.queue_depth_max = static_cast<double>(depth_max);
      double max_routed = 0, sum_routed = 0;
      const auto stats = engine.shard_stats();
      for (const auto& st : stats) {
        max_routed = std::max(max_routed, static_cast<double>(st.routed));
        sum_routed += static_cast<double>(st.routed);
      }
      out.shard_imbalance =
          sum_routed > 0 ? max_routed / (sum_routed / stats.size()) : 0;
      engine.Stop();
      out.rows = rows.load();
    }
    out.crossed_ns_per_tuple =
        out.reorder_ns_per_tuple + out.archive_append_ns_per_tuple +
        (spec.shards > 1 ? out.scatter_ns_per_tuple : out.inject_ns_per_tuple);
    return out;
  }

  // window/stem/modules.aggregate: one QueryRunner per standing query over
  // archives fed batch by batch, advanced to the footprint watermark.
  struct Runner {
    std::unique_ptr<tcq::QueryRunner> runner;
    std::vector<int> footprint;
    int64_t width = 0;
    int64_t prev_t = INT64_MIN;
  };
  std::vector<Runner> runners;
  for (const QueryDef& q : in.standing) {
    auto aq = tcq::AnalyzeSql(q.sql, catalog);
    if (!aq.ok()) continue;
    Runner r;
    std::vector<const tcq::Archive*> srcs;
    for (const tcq::StreamDef& def : aq->defs) {
      const int s = def.name == in.stream_names[0] ? 0 : 1;
      srcs.push_back(&archives[static_cast<size_t>(s)]);
      r.footprint.push_back(s);
    }
    r.width = q.window.width;
    std::vector<tcq::TupleVector> tables(srcs.size());
    tcq::QueryRunner::Options ro;
    ro.start_time = 1;
    r.runner = std::make_unique<tcq::QueryRunner>(
        std::move(*aq), std::move(srcs), std::move(tables), ro);
    runners.push_back(std::move(r));
  }
  const auto c0 = ReadCounters();
  std::vector<int64_t> wm(in.num_streams, INT64_MIN);
  int64_t append_ns = 0, advance_ns = 0;
  uint64_t windows = 0, timed_windows = 0;
  double scanned = 0, fresh = 0, join_rows = 0;
  std::vector<tcq::ResultSet> sets;
  for (size_t b = 0; b < end; ++b) {
    const size_t s = in.batches[b].stream;
    tcq::Archive& a = archives[s];
    append_ns += timed("ingress.archive_append", b, [&] {
      for (const tcq::Tuple& t : released[b]) a.Append(t);
    });
    for (const tcq::Tuple& t : released[b]) wm[s] = std::max(wm[s], t.timestamp());
    for (Runner& r : runners) {
      if (std::find(r.footprint.begin(), r.footprint.end(),
                    static_cast<int>(s)) == r.footprint.end()) {
        continue;
      }
      int64_t hwm = INT64_MAX;
      for (int f : r.footprint) hwm = std::min(hwm, wm[static_cast<size_t>(f)]);
      sets.clear();
      advance_ns += timed("window.advance", b, [&] {
        r.runner->Advance(hwm, &sets);
      });
      if (is_closed(b)) timed_windows += sets.size();
      for (const tcq::ResultSet& rs : sets) {
        ++windows;
        out.rows += rs.rows.size();
        if (r.footprint.size() > 1 && rs.rows.size() == 1 &&
            rs.rows[0].cell(0).type() == tcq::ValueType::kInt64) {
          join_rows += static_cast<double>(rs.rows[0].cell(0).int64_value());
        }
        // Archive tuples the window scans vs tuples new since the
        // previous window (one tuple per timestamp per stream).
        const int64_t lo = std::max<int64_t>(1, rs.t - r.width + 1);
        const double clauses = static_cast<double>(r.footprint.size());
        scanned += clauses * static_cast<double>(rs.t - lo + 1);
        fresh += clauses * static_cast<double>(
                               r.prev_t == INT64_MIN ? rs.t - lo + 1
                                                     : rs.t - r.prev_t);
        r.prev_t = rs.t;
      }
    }
  }
  const auto d = Delta(c0, ReadCounters());
  uint64_t visits = 0;
  for (const Runner& r : runners) visits += r.runner->total_visits();
  const double tuples = static_cast<double>(out.tuples);
  out.archive_append_ns_per_tuple =
      static_cast<double>(append_ns) / timed_tuples;
  out.advance_ns_per_tuple = static_cast<double>(advance_ns) / timed_tuples;
  out.advance_us_per_window =
      timed_windows ? static_cast<double>(advance_ns) * 1e-3 /
                          static_cast<double>(timed_windows)
                    : 0;
  out.windows_per_tuple = static_cast<double>(windows) / tuples;
  out.visits_per_window =
      windows ? static_cast<double>(visits) / static_cast<double>(windows) : 0;
  out.rescan_ratio = fresh > 0 ? scanned / fresh : 0;
  const double probes = static_cast<double>(d.at("tcq.stem.probes"));
  out.stem_probes_per_tuple = probes / tuples;
  // Join results per SteM probe (the eddy's probe path does not count
  // matches itself; every COUNT(*) unit is one surviving match).
  out.stem_matches_per_probe = probes > 0 ? join_rows / probes : 0;
  out.crossed_ns_per_tuple = out.reorder_ns_per_tuple +
                             out.archive_append_ns_per_tuple +
                             out.advance_ns_per_tuple;
  return out;
}

}  // namespace cqbench
