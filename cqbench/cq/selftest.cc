// Self-tests of the benchmark's own machinery: the release (final
// arrival) rule, span arithmetic, the reference evaluator and the
// generator's determinism.
#include <gtest/gtest.h>

#include "core/server.h"
#include "cq/reference.h"
#include "cq/spans.h"
#include "cq/workload.h"

namespace cqbench {
namespace {

TEST(ReleaseBatches, HandBuiltDisorderedSequence) {
  // max_disorder 2. Arrivals (ts : batch): 1:0 3:0 2:0 | 5:1 4:1 | 9:2.
  //  ts 1 is released when the high-water mark reaches 3 (batch 0);
  //  ts 2 and 3 when it reaches 5 (batch 1); 4 and 5 when 9 arrives
  //  (batch 2); 9 only by the final flush.
  const std::vector<int64_t> ts = {1, 3, 2, 5, 4, 9};
  const std::vector<uint32_t> batch = {0, 0, 0, 1, 1, 2};
  const std::vector<uint32_t> got = ReleaseBatches(ts, batch, 2, 3);
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 1, 1, 2, 2, 3}));
}

TEST(ReleaseBatches, InOrderReleasesImmediately) {
  const std::vector<int64_t> ts = {1, 2, 2, 3};
  const std::vector<uint32_t> batch = {0, 1, 1, 2};
  EXPECT_EQ(ReleaseBatches(ts, batch, 0, 3), batch);
}

TEST(ReleaseBatches, AgreesWithTheServer) {
  // The generator's release batches match what the engine delivers: a
  // standing query's rows arrive inside the PushBatch of their computed
  // release batch.
  const WorkloadSpec* spec = FindWorkload("cacq_inline");
  ASSERT_NE(spec, nullptr);
  Input in = Generate(*spec, 3,0);
  tcq::Server::Options opts;
  opts.max_disorder = spec->max_disorder;
  tcq::Server server(opts);
  ASSERT_TRUE(server.DefineStream("Ticks", in.schemas[0], 0, 1).ok());
  auto q = server.Submit("SELECT seq FROM Ticks WHERE price > 0.0");
  ASSERT_TRUE(q.ok());
  size_t current = 0;
  size_t wrong = 0, rows = 0;
  ASSERT_TRUE(server
                  .SetCallback(*q,
                               [&](const tcq::ResultSet& rs) {
                                 for (const tcq::Tuple& r : rs.rows) {
                                   ++rows;
                                   const auto seq = static_cast<size_t>(
                                       r.cell(0).int64_value());
                                   if (in.release_batch[seq] != current) ++wrong;
                                 }
                               })
                  .ok());
  const size_t nb = std::min<size_t>(in.batches.size(), 400);
  for (size_t b = 0; b < nb; ++b) {
    current = b;
    ASSERT_TRUE(server.PushBatch("Ticks", MakeTuples(in, b)).ok());
  }
  EXPECT_GT(rows, nb * 60);
  EXPECT_EQ(wrong, 0u);
}

TEST(WindowFinalBatch, FirstBatchPastTheRightEnd) {
  Input in;
  in.watermark_after = {{64, 64, 128, 128}, {INT64_MIN, 64, 64, 128}};
  EXPECT_EQ(WindowFinalBatch(in, {0}, 63), 0u);
  EXPECT_EQ(WindowFinalBatch(in, {0}, 64), 2u);
  EXPECT_EQ(WindowFinalBatch(in, {0, 1}, 63), 1u);
  EXPECT_EQ(WindowFinalBatch(in, {0, 1}, 64), 3u);
  EXPECT_EQ(WindowFinalBatch(in, {0, 1}, 200), 4u);
}

TEST(Spans, CoveredCountsOverlapOnceAndClips) {
  EXPECT_EQ(CoveredNs(0, 100, {}), 0);
  EXPECT_EQ(CoveredNs(0, 100, {{10, 20}, {15, 30}, {50, 60}}), 30);
  EXPECT_EQ(CoveredNs(0, 100, {{-5, 10}, {90, 200}}), 20);
  EXPECT_EQ(CoveredNs(0, 100, {{20, 10}}), 0);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> s = {
      {"push", 0, -1, 0, 1000},  // Two callbacks nested inside.
      {"cb", 0, 0, 100, 300},
      {"cb", 0, 0, 250, 400},
      {"push", 1, -1, 1000, 1500},
      {"cb", 1, 3, 1600, 1700},  // Egress callback after the push.
      {"inner", 0, 1, 150, 160},
      {"egress", 0, 0, 500, 600, 1},  // Another thread: not subtracted.
  };
  const std::vector<int64_t> self = SelfTimes(s);
  EXPECT_EQ(self[0], 1000 - 300);
  EXPECT_EQ(self[1], 200 - 10);
  EXPECT_EQ(self[2], 150);
  EXPECT_EQ(self[3], 500);
  EXPECT_EQ(self[4], 100);
  EXPECT_EQ(self[6], 100);
}

TEST(Reference, CatchesAPlantedWrongCacqRow) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row{i + 1, i, 100.0 + i, static_cast<uint32_t>(i % 2)});
  }
  CacqQuery q;
  q.sym = 1;
  q.lo = 102.5;
  q.hi = 108.5;
  const std::vector<int64_t> right = {3, 5, 7};
  EXPECT_EQ(CheckCacqExact(q, rows, right), 0u);
  EXPECT_EQ(CheckCacqExact(q, rows, {3, 5, 7, 4}), 1u);  // Planted row.
  EXPECT_EQ(CheckCacqExact(q, rows, {3, 7}), 1u);        // Missing row.
  EXPECT_EQ(CheckCacqExact(q, rows, {3, 5, 5, 7}), 1u);  // Duplicate.
  const std::vector<uint32_t> rel = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  EXPECT_EQ(CheckCacqSubset(q, rows, rel, 1, 2, {5, 7}), 0u);
  EXPECT_EQ(CheckCacqSubset(q, rows, rel, 1, 2, {3}), 1u);
}

TEST(Reference, CatchesAPlantedWrongWindow) {
  std::vector<Row> ticks, quotes;
  for (int i = 0; i < 256; ++i) {
    ticks.push_back(Row{i + 1, i, 10.0 + i, static_cast<uint32_t>(i % 3)});
    quotes.push_back(Row{i + 1, i, 20.0, static_cast<uint32_t>(i % 4)});
  }
  WindowQuery avg;
  avg.sym = 0;
  avg.width = 64;
  std::vector<WindowResult> got;
  for (int64_t t = 1; t <= 129; t += kWindowHop) {
    got.push_back(ReferenceWindow(avg, ticks, quotes, t));
  }
  EXPECT_EQ(CheckWindows(avg, ticks, quotes, got, true, 1, 129), 0u);
  got[1].value += 0.5;
  EXPECT_EQ(CheckWindows(avg, ticks, quotes, got, true, 1, 129), 1u);
  got.pop_back();
  EXPECT_GE(CheckWindows(avg, ticks, quotes, got, true, 1, 129), 1u);

  WindowQuery join;
  join.join = true;
  join.width = 12;
  // Window [1, 12]: ticks sym counts 4/4/4, quotes sym counts 3/3/3/3.
  EXPECT_EQ(ReferenceWindow(join, ticks, quotes, 12).value, 36.0);
}

TEST(Reference, EndToEndPlantedRowRaisesFailures) {
  // A real server's rows pass the exact check; one planted row fails it.
  const WorkloadSpec* spec = FindWorkload("cacq_inline");
  Input in = Generate(*spec, 5,0);
  tcq::Server::Options opts;
  opts.max_disorder = spec->max_disorder;
  tcq::Server server(opts);
  ASSERT_TRUE(server.DefineStream("Ticks", in.schemas[0], 0, 1).ok());
  const QueryDef& def = in.standing[0];
  auto q = server.Submit(def.sql);
  ASSERT_TRUE(q.ok());
  std::vector<int64_t> seqs;
  ASSERT_TRUE(server
                  .SetCallback(*q,
                               [&](const tcq::ResultSet& rs) {
                                 for (const tcq::Tuple& r : rs.rows) {
                                   seqs.push_back(r.cell(0).int64_value());
                                 }
                               })
                  .ok());
  for (size_t b = 0; b < in.batches.size(); ++b) {
    ASSERT_TRUE(server.PushBatch("Ticks", MakeTuples(in, b)).ok());
  }
  ASSERT_TRUE(
      server.Heartbeat("Ticks", in.watermark_after[0].back()).ok());
  const std::vector<Row> by_seq = RowsBySeq(in.arrivals[0]);
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(CheckCacqExact(def.cacq, by_seq, seqs), 0u);
  int64_t planted = 0;
  while (CacqMatches(def.cacq, by_seq[static_cast<size_t>(planted)])) ++planted;
  seqs.push_back(planted);
  EXPECT_EQ(CheckCacqExact(def.cacq, by_seq, seqs), 1u);
}

TEST(Generator, SameSeedSameInputOtherSeedDiffers) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec* spec = FindWorkload(name);
    const Input a = Generate(*spec, 11,1);
    const Input b = Generate(*spec, 11,1);
    const Input c = Generate(*spec, 12,1);
    const Input d = Generate(*spec, 11,2);
    EXPECT_EQ(a.hash, b.hash) << name;
    EXPECT_NE(a.hash, c.hash) << name;
    EXPECT_NE(a.hash, d.hash) << name;  // Episodes differ too.
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
    for (size_t s = 0; s < a.arrivals.size(); ++s) {
      ASSERT_EQ(a.arrivals[s].size(), b.arrivals[s].size());
      for (size_t i = 0; i < a.arrivals[s].size(); ++i) {
        ASSERT_EQ(a.arrivals[s][i].ts, b.arrivals[s][i].ts);
        ASSERT_EQ(a.arrivals[s][i].price, b.arrivals[s][i].price);
        ASSERT_EQ(a.arrivals[s][i].sym, b.arrivals[s][i].sym);
      }
    }
    EXPECT_EQ(a.release_batch, b.release_batch);
  }
}

TEST(Generator, DisorderStaysWithinTheBound) {
  const WorkloadSpec* spec = FindWorkload("cacq_inline");
  const Input in = Generate(*spec, 2,0);
  int64_t raw = INT64_MIN;
  size_t late = 0;
  for (const Row& r : in.arrivals[0]) {
    if (r.ts < raw) ++late;
    raw = std::max(raw, r.ts);
    EXPECT_GE(r.ts, raw - spec->max_disorder);
  }
  EXPECT_GT(late, 0u);
}

}  // namespace
}  // namespace cqbench
