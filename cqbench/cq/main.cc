// cqbench: end-to-end continuous-query benchmark of the TelegraphCQ server.
//
//   cqbench --workload <cacq_inline|cacq_sharded|windowed> --seed <n>
//           --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
// prints the per-layer metrics: an untraced run, a traced run with spans
// around every Server call, and the per-layer ladder. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <array>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cq/ladder.h"
#include "cq/server_run.h"
#include "cq/spans.h"
#include "cq/workload.h"

namespace cqbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintHost() {
#ifdef TCQ_METRICS_DISABLED
  const char* metrics = "off";
#else
  const char* metrics = "on";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "# host {\"nproc\": %u, \"compiler\": \"%s\", \"optimized\": %s, "
      "\"metrics\": \"%s\"}\n",
      std::thread::hardware_concurrency(), __VERSION__,
      optimized ? "true" : "false", metrics);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

void PrintInput(const Input& in) {
  size_t tuples = 0;
  for (const auto& rows : in.arrivals) tuples += rows.size();
  std::printf("# %s seed %llu episode %zu: %zu tuples in %zu batches, "
              "%zu standing queries, %zu churn events, input hash %016llx\n",
              in.spec->name, static_cast<unsigned long long>(in.seed),
              in.episode, tuples, in.batches.size(), in.standing.size(),
              in.churn.size(), static_cast<unsigned long long>(in.hash));
}

/// {steal, total} CPU ticks from /proc/stat. Steal is time the hypervisor
/// gave to other guests: a run on a contended host shows there.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::pair<uint64_t, uint64_t> out{0, 0};
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    out.first = v[7];
    for (unsigned long long x : v) out.second += x;
  }
  std::fclose(f);
  return out;
}

double StealPct(const std::pair<uint64_t, uint64_t>& since) {
  const auto now = CpuTicks();
  return Ratio(static_cast<double>(now.first - since.first),
               static_cast<double>(now.second - since.second)) * 100.0;
}

int EndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  double wall_s = 0, cpu_s = 0, closed_tuples = 0, rss_mb = 0;
  uint64_t attempted = 0, failed = 0;
  std::array<std::vector<double>, 2> p50, p99, late;
  std::vector<double> setup_s, open_submits;
  const auto ticks0 = CpuTicks();
  // Episode 0 warms the process up (heap growth, thread-local pools): it
  // gives the memory growth, checked results and setup times; the timed
  // episodes after it give the timings.
  const size_t episodes = TimedEpisodes(seconds);
  for (size_t e = 0; e <= episodes; ++e) {
    const Input in = Generate(spec, seed, e);
    PrintInput(in);
    const ServerRun r = RunServer(in, ServerRunOptions{});
    attempted += r.attempted;
    failed += r.failed;
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    if (e == 0) {
      // Later episodes reuse memory the earlier servers freed.
      rss_mb = r.rss_growth_mb;
      continue;
    }
    wall_s += r.closed_wall_s;
    cpu_s += r.closed_cpu_s;
    closed_tuples += static_cast<double>(r.closed_tuples);
    // Submit latency while data flows at the open-loop rates (in the
    // closed loop a Submit queues behind a saturated pipeline).
    for (size_t i = 0; i < r.submit_us.size(); ++i) {
      if (r.submit_phase[i] != 0) open_submits.push_back(r.submit_us[i]);
    }
    for (size_t ph = 0; ph < 2; ++ph) {
      p50[ph].insert(p50[ph].end(), r.lat_p50_us[ph].begin(),
                     r.lat_p50_us[ph].end());
      p99[ph].insert(p99[ph].end(), r.lat_p99_us[ph].begin(),
                     r.lat_p99_us[ph].end());
      late[ph].push_back(Percentile(r.send_late_us[ph], 0.99));
    }
    std::printf("#   closed %.0f tuples/s; light p50/p99 %.0f/%.0f us, "
                "pooled p99 %.0f us (%zu results, %zu windows); heavy "
                "%.0f/%.0f us, %.0f us (%zu, %zu); generator late p99 "
                "%.0f/%.0f us\n",
                static_cast<double>(r.closed_tuples) / r.closed_wall_s,
                Median(r.lat_p50_us[0]), Median(r.lat_p99_us[0]),
                r.lat_p99_pooled_us[0], r.lat_samples[0],
                r.lat_p99_us[0].size(), Median(r.lat_p50_us[1]),
                Median(r.lat_p99_us[1]), r.lat_p99_pooled_us[1],
                r.lat_samples[1], r.lat_p99_us[1].size(), late[0].back(),
                late[1].back());
  }
  std::vector<Metric> m = {
      {"throughput_tps", closed_tuples / wall_s, "tuples/s"},
      {"cpu_us_per_tuple", cpu_s * 1e6 / closed_tuples, "us"},
      {"lat_light_p50_us", Median(p50[0]), "us"},
      {"lat_light_p99_us", Median(p99[0]), "us"},
      {"lat_heavy_p50_us", Median(p50[1]), "us"},
      {"lat_heavy_p99_us", Median(p99[1]), "us"},
      {"submit_p50_us", Percentile(open_submits, 0.5), "us"},
      {"submit_p90_us", Percentile(open_submits, 0.9), "us"},
      {"setup_s", Median(setup_s), "s"},
      {"rss_growth_mb", rss_mb, "MiB"},
  };
  std::printf("# host steal %.2f%% of CPU time during the run\n",
              StealPct(ticks0));
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

int Traced(const Input& in, const std::string& spans_dir) {
  const WorkloadSpec& spec = *in.spec;
  PrintInput(in);
  const auto ticks0 = CpuTicks();
  ServerRunOptions plain;
  plain.setup_reps = 1;
  // The first run warms the process up; untraced and traced runs then
  // start from the same state.
  const ServerRun warm = RunServer(in, plain);
  const ServerRun base = RunServer(in, plain);
  ServerRunOptions traced_opts = plain;
  traced_opts.traced = true;
  ServerRun tr = RunServer(in, traced_opts);
  const LadderResult lad = RunLadder(in);

  // Parent links: a callback's parent is the PushBatch (or final
  // heartbeat) of the batch that made its result final.
  const size_t nb = in.batches.size();
  std::vector<Span> spans = tr.spans;
  const size_t first_cb = spans.size();
  for (const CallbackRecord& cb : tr.callbacks) {
    spans.push_back(Span{"core.callback", cb.batch,
                         tr.push_span[std::min<size_t>(cb.batch, nb)],
                         cb.start_ns, cb.end_ns, spec.shards > 1 ? 1 : 0});
  }
  const std::vector<int64_t> self = SelfTimes(spans);

  std::vector<bool> closed(nb + 1, false);
  for (const Segment& seg : in.segments) {
    if (seg.phase != Phase::kClosed) continue;
    for (size_t b = seg.b0; b < seg.b1; ++b) closed[b] = true;
  }
  double push_self_closed = 0, cb_ns = 0, cb_rows = 0;
  std::vector<double> egress_us;
  std::vector<int64_t> first_cb_ns(nb + 1, INT64_MAX);
  for (size_t i = 0; i < first_cb; ++i) {
    if (std::strcmp(spans[i].name, "core.push_batch") == 0 &&
        closed[static_cast<size_t>(spans[i].batch)]) {
      push_self_closed += static_cast<double>(self[i]);
    }
  }
  for (size_t i = first_cb; i < spans.size(); ++i) {
    cb_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    cb_rows += tr.callbacks[i - first_cb].rows;
    const size_t b = std::min<size_t>(static_cast<size_t>(spans[i].batch), nb);
    first_cb_ns[b] = std::min(first_cb_ns[b], spans[i].start_ns);
  }
  if (spec.shards > 1) {
    for (size_t b = 0; b < nb; ++b) {
      const int64_t p = tr.push_span[b];
      if (p < 0 || first_cb_ns[b] == INT64_MAX) continue;
      egress_us.push_back(
          static_cast<double>(first_cb_ns[b] - spans[static_cast<size_t>(p)].end_ns) *
          1e-3);
    }
  }
  const double closed_tuples = static_cast<double>(tr.closed_tuples);
  const double push_self = push_self_closed / closed_tuples;
  const double glue = push_self - lad.crossed_ns_per_tuple;
  const auto& cd = tr.closed_delta;
  const auto& rd = tr.run_delta;
  auto c = [](const std::map<std::string, uint64_t>& d, const char* k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double hits = c(rd, "tcq.pool.hits");
  const double tps_base =
      Ratio(static_cast<double>(base.closed_tuples), base.closed_wall_s);
  const double tps_traced =
      Ratio(static_cast<double>(tr.closed_tuples), tr.closed_wall_s);

  // Checks of the traced run: outputs, the ladder's delivering cut against
  // the Server, and the latency attribution (no result before its final
  // arrival).
  uint64_t failed =
      warm.failed + base.failed + tr.failed + tr.arrival_violations;
  uint64_t attempted = warm.attempted + base.attempted + tr.attempted +
                       tr.callbacks.size() + 1;
  if (lad.rows != tr.standing_rows) {
    std::fprintf(stderr, "ladder rows %llu != server standing rows %llu\n",
                 static_cast<unsigned long long>(lad.rows),
                 static_cast<unsigned long long>(tr.standing_rows));
    ++failed;
  }
  if (tr.arrival_violations > 0) {
    std::fprintf(stderr, "%llu callbacks ran outside their final arrival\n",
                 static_cast<unsigned long long>(tr.arrival_violations));
  }
  std::printf("# ladder rows %llu, server standing rows %llu; "
              "ladder crossed %.1f ns/tuple of push_batch self %.1f\n",
              static_cast<unsigned long long>(lad.rows),
              static_cast<unsigned long long>(tr.standing_rows),
              lad.crossed_ns_per_tuple, push_self);

  const double churns = static_cast<double>(tr.churns);
  std::vector<Metric> m = {
      {"core.push_batch_self_ns_per_tuple", push_self, "ns"},
      {"core.glue_ns_per_tuple", glue, "ns"},
      {"core.callback_ns_per_row", Ratio(cb_ns, cb_rows), "ns"},
      {"core.rows_per_tuple",
       Ratio(static_cast<double>(tr.rows), static_cast<double>(tr.tuples)),
       "ratio"},
      {"core.submit_us", Median(tr.submit_us), "us"},
      {"core.cancel_us", Median(tr.cancel_us), "us"},
      {"core.quiesce_ms", Median(tr.quiesce_ms), "ms"},
      {"parser.analyze_us", lad.analyze_us, "us"},
      {"ingress.reorder_ns_per_tuple", lad.reorder_ns_per_tuple, "ns"},
      {"ingress.archive_append_ns_per_tuple", lad.archive_append_ns_per_tuple,
       "ns"},
      {"ingress.late_within_bound_ratio",
       Ratio(c(rd, "tcq.disorder.late_within_bound"),
             static_cast<double>(tr.tuples)),
       "ratio"},
      {"ingress.buffered_max", lad.buffered_max, "count"},
      {"ingress.history_resident_tuples",
       static_cast<double>(tr.history_resident), "count"},
      {"cacq.inject_ns_per_tuple", lad.inject_ns_per_tuple, "ns"},
      {"modules.grouped_filter_ns_per_tuple", lad.grouped_filter_ns_per_tuple,
       "ns"},
      {"modules.grouped_filter_pass_ratio", lad.grouped_filter_pass_ratio,
       "ratio"},
      {"modules.grouped_filter_rebuilds_per_churn",
       Ratio(c(rd, "tcq.grouped_filter.rebuilds"), churns), "ratio"},
      {"modules.grouped_filter_rebuild_us", lad.grouped_filter_rebuild_us,
       "us"},
      {"eddy.decisions_per_tuple",
       Ratio(c(cd, "tcq.eddy.decisions"), closed_tuples), "ratio"},
      {"eddy.cache_hit_ratio",
       Ratio(c(cd, "tcq.eddy.cache_hits"),
             c(cd, "tcq.eddy.cache_hits") + c(cd, "tcq.eddy.cache_misses")),
       "ratio"},
      {"eddy.visits_per_tuple", Ratio(c(cd, "tcq.eddy.visits"), closed_tuples),
       "ratio"},
      {"exchange.scatter_ns_per_tuple", lad.scatter_ns_per_tuple, "ns"},
      {"exchange.shard_imbalance", lad.shard_imbalance, "ratio"},
      {"exchange.producer_blocked_ratio", lad.producer_blocked_ratio, "ratio"},
      {"exchange.queue_depth_max", lad.queue_depth_max, "count"},
      {"exchange.egress_delay_us", Median(egress_us), "us"},
      {"window.advance_us_per_window", lad.advance_us_per_window, "us"},
      {"window.windows_per_tuple", lad.windows_per_tuple, "ratio"},
      {"window.visits_per_window", lad.visits_per_window, "ratio"},
      {"window.rescan_ratio", lad.rescan_ratio, "ratio"},
      {"stem.probes_per_tuple", lad.stem_probes_per_tuple, "ratio"},
      {"stem.matches_per_probe", lad.stem_matches_per_probe, "ratio"},
      {"common.pool_hit_ratio", Ratio(hits, hits + c(rd, "tcq.pool.misses")),
       "ratio"},
      {"bench.lat_light_p99_pooled_us", base.lat_p99_pooled_us[0], "us"},
      {"bench.lat_heavy_p99_pooled_us", base.lat_p99_pooled_us[1], "us"},
      {"bench.send_late_p99_us", Percentile(base.send_late_us[1], 0.99), "us"},
      {"bench.tracing_overhead_pct",
       tps_base > 0 ? (tps_base - tps_traced) / tps_base * 100.0 : 0, "%"},
      {"bench.failed_ops",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"bench.host_steal_pct", StealPct(ticks0), "%"},
  };

  // Spans file (one per workload, rewritten by each traced run): every call
  // span, the callbacks of every 64th batch, and the ladder's spans.
  std::vector<Span> keep;
  std::vector<int64_t> keep_self;
  std::vector<int64_t> remap(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i >= first_cb && spans[i].batch % 64 != 0) continue;
    remap[i] = static_cast<int64_t>(keep.size());
    keep.push_back(spans[i]);
    keep_self.push_back(self[i]);
  }
  for (Span& s : keep) {
    s.parent = s.parent >= 0 ? remap[static_cast<size_t>(s.parent)] : -1;
  }
  for (const Span& s : lad.spans) {
    keep.push_back(s);
    keep_self.push_back(s.end_ns - s.start_ns);
  }
  std::error_code ec;
  std::filesystem::create_directories(spans_dir, ec);
  const std::string path = spans_dir + "/" + spec.name + ".jsonl";
  if (!WriteSpans(path, keep, keep_self)) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    ++failed;
  } else {
    std::printf("# spans: %zu written to %s\n", keep.size(), path.c_str());
  }
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace cqbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_dir = ".bench_build/cqbench-spans";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--spans-dir") {
      spans_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  const cqbench::WorkloadSpec* spec = cqbench::FindWorkload(workload);
  if (spec == nullptr || seconds <= 0) {
    std::fprintf(stderr, "usage: cqbench --workload <");
    for (const std::string& n : cqbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, " > --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Precise sleeps for the open-loop generator (this thread).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  cqbench::PrintHost();
  if (trace) {
    return cqbench::Traced(cqbench::Generate(*spec, seed, 0), spans_dir);
  }
  return cqbench::EndToEnd(*spec, seed, seconds);
}
