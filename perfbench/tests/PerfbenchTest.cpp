//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own tests ------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
//
// Checks the benchmark itself: the tail-percentile rule, span self-time
// arithmetic, failure counting against a deliberately wrong pinned
// reference, seeded serve_mix schedules, and every workload end to end at
// smoke sizes against the pinned smoke references in reference.json.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "Bench.h"
#include "Stats.h"

using namespace perfbench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

TEST(Percentile, MedianAndNearestRank) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(percentile(iota(100), 99), 99.0);
  EXPECT_EQ(percentile(iota(1000), 99), 990.0);
  EXPECT_EQ(percentile(iota(10), 1), 1.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
  Tail T = tailPercentile(iota(1000));
  EXPECT_EQ(T.Pct, 99);
  EXPECT_EQ(T.Value, 990.0);
  EXPECT_EQ(T.Samples, 1000u);
  // One fewer: p99's rank leaves only 9 beyond, so p98 (rank 980).
  T = tailPercentile(iota(999));
  EXPECT_EQ(T.Pct, 98);
  EXPECT_EQ(T.Value, 980.0);
  // 21 samples: p52 is rank 11 with 10 beyond; p53 would be rank 12.
  T = tailPercentile(iota(21));
  EXPECT_EQ(T.Pct, 52);
  EXPECT_EQ(T.Value, 11.0);
  // 20 samples: nothing above the median qualifies.
  T = tailPercentile(iota(20));
  EXPECT_EQ(T.Pct, 50);
  EXPECT_EQ(T.Value, 10.5);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanLog L(true);
  int Root = L.add("op", 1, 0.0, 10.0, -1);
  L.add("a", 1, 1.0, 4.0, Root);
  int B = L.add("b", 1, 5.0, 9.0, Root);
  L.add("c", 1, 6.0, 7.0, B);
  L.add("op", 2, 20.0, 22.0, -1);

  auto ByOp = L.selfSecondsByOp();
  EXPECT_DOUBLE_EQ(ByOp[1]["op"], 3.0);
  EXPECT_DOUBLE_EQ(ByOp[1]["a"], 3.0);
  EXPECT_DOUBLE_EQ(ByOp[1]["b"], 3.0);
  EXPECT_DOUBLE_EQ(ByOp[1]["c"], 1.0);
  EXPECT_DOUBLE_EQ(ByOp[2]["op"], 2.0);
  // Self times of an op add up to its root span.
  double Sum = 0;
  for (const auto &[Name, Sec] : ByOp[1])
    Sum += Sec;
  EXPECT_DOUBLE_EQ(Sum, 10.0);
  EXPECT_DOUBLE_EQ(L.rootSeconds(), 12.0);
}

TEST(Spans, ScopesNestAndMergeRebasesParents) {
  SpanLog L(true);
  {
    SpanLog::Scope Outer(L, "outer", 7);
    SpanLog::Scope Inner(L, "inner", 7);
  }
  ASSERT_EQ(L.spans().size(), 2u);
  EXPECT_EQ(L.spans()[0].Parent, -1);
  EXPECT_EQ(L.spans()[1].Parent, 0);
  EXPECT_LE(L.spans()[1].End, L.spans()[0].End);

  SpanLog M(true);
  M.merge(L);
  M.merge(L);
  ASSERT_EQ(M.spans().size(), 4u);
  EXPECT_EQ(M.spans()[3].Parent, 2);

  SpanLog Off(false);
  { SpanLog::Scope S(Off, "x", 1); }
  EXPECT_TRUE(Off.spans().empty());
}

TEST(PeakRss, WindowStartsAtReset) {
  Result R;
  resetPeakRss(R);
  ASSERT_TRUE(R.Correct);
  const double Before = peakRssMb();
  {
    std::vector<char> Big(64u << 20, 1); // Touches every page.
    EXPECT_GE(peakRssMb(), Before + 60.0);
  }
  resetPeakRss(R);
  EXPECT_LT(peakRssMb(), Before + 30.0);
}

TEST(Schedule, PureFunctionOfSeedWithFixedShares) {
  auto Cat = serveCatalog(/*Smoke=*/true);
  const size_t N = 800; // A multiple of ServeWeightTotal and of 8.
  auto A = makeSchedule(5, N, Cat), B = makeSchedule(5, N, Cat),
       C = makeSchedule(6, N, Cat);
  bool SameAB = true, SameAC = true;
  std::vector<size_t> CountA(Cat.size()), CountC(Cat.size());
  size_t MissA = 0, MissC = 0;
  for (size_t I = 0; I < N; ++I) {
    SameAB &= A[I].Variant == B[I].Variant && A[I].Miss == B[I].Miss &&
              A[I].At == B[I].At;
    SameAC &= A[I].Variant == C[I].Variant && A[I].Miss == C[I].Miss;
    ++CountA[A[I].Variant];
    ++CountC[C[I].Variant];
    MissA += A[I].Miss;
    MissC += C[I].Miss;
  }
  EXPECT_TRUE(SameAB);
  EXPECT_FALSE(SameAC);
  EXPECT_EQ(CountA, CountC);
  EXPECT_EQ(MissA, N / 8);
  EXPECT_EQ(MissC, N / 8);
  int Weights = 0;
  for (const ServeVariant &V : Cat)
    Weights += V.Weight;
  EXPECT_EQ(Weights, ServeWeightTotal);
  for (size_t V = 0; V < Cat.size(); ++V)
    EXPECT_EQ(CountA[V],
              N * static_cast<size_t>(Cat[V].Weight) / ServeWeightTotal);
  EXPECT_DOUBLE_EQ(A[N - 1].At, (N - 1) / ServeRatePerSecond);
}

PinnedTable pinned() {
  auto T = loadPinned(PERFBENCH_SOURCE_DIR "/reference.json");
  EXPECT_TRUE(static_cast<bool>(T));
  return T ? *T : PinnedTable();
}

Config smoke(const std::string &Workload, bool Trace) {
  Config C;
  C.Workload = Workload;
  C.Seed = 11;
  C.Seconds = 0.3;
  C.Trace = Trace;
  C.Smoke = true;
  C.Pinned = pinned();
  return C;
}

TEST(FailFrac, WrongPinnedCyclesFailEveryCheckedRun) {
  Config C = smoke("lu_serial", false);
  Kernel K = batchKernel(C);
  ASSERT_TRUE(C.Pinned.count(K.Name));
  C.Pinned[K.Name].WallCycles += 1;
  Result R = runBatch(C);
  // The oracle cross-check, the warm-up and every timed run compare
  // against the (wrong) pinned cycles, so every op fails.
  EXPECT_GE(R.Attempted, 3u);
  EXPECT_EQ(R.Failed, R.Attempted);
  EXPECT_NE(resultJson(R, false).find("\"correct\": false"),
            std::string::npos);
}

TEST(FailFrac, WrongPinnedServeVariantFailsSetUp) {
  Config C = smoke("serve_mix", false);
  auto Cat = serveCatalog(true);
  C.Pinned[Cat[1].K.Name].WallCycles += 1;
  Result R = runServe(C);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_EQ(R.Attempted, Cat.size());
  EXPECT_NE(resultJson(R, false).find("\"correct\": false"),
            std::string::npos);
}

class Smoke : public ::testing::TestWithParam<std::tuple<const char *, bool>> {
};

TEST_P(Smoke, EveryMetricReportedAndCorrect) {
  auto [Workload, Trace] = GetParam();
  Config C = smoke(Workload, Trace);
  Result R = std::string(Workload) == "serve_mix" ? runServe(C)
                                                  : runBatch(C);
  for (const std::string &N : R.Notes)
    EXPECT_EQ(N.rfind("FAIL", 0), std::string::npos) << N;
  EXPECT_TRUE(R.Correct);
  EXPECT_EQ(R.Failed, 0u);
  EXPECT_GT(R.Attempted, 2u);
  for (const MetricSpec &M : Trace ? PerLayerMetrics : EndToEndMetrics) {
    double V = R.get(M.Name);
    EXPECT_TRUE(std::isfinite(V)) << M.Name;
    if (!Trace) {
      EXPECT_GT(V, 0.0) << M.Name; // End-to-end metrics are never 0.
    }
  }
  EXPECT_NE(resultJson(R, Trace).find("\"correct\": true"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Smoke,
    ::testing::Combine(::testing::Values("lu_serial", "conv_reshaped_p64",
                                         "serve_mix"),
                       ::testing::Bool()));

} // namespace
