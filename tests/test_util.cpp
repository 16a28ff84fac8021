#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "qdi/util/log.hpp"
#include "qdi/util/rng.hpp"
#include "qdi/util/stats.hpp"
#include "qdi/util/table.hpp"

namespace qu = qdi::util;

TEST(Rng, DeterministicForSeed) {
  qu::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  qu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  qu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  qu::Rng r(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 255ull, 1000003ull}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  qu::Rng r(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[r.below(8)];
  for (int h : hits) EXPECT_GT(h, 800);  // each bucket near 1000
}

TEST(Rng, GaussianMoments) {
  qu::Rng r(13);
  qu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  qu::Rng r(17);
  qu::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> v{1.0, 2.0, 4.0, 8.0, 16.0};
  qu::RunningStats s;
  for (double x : v) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  EXPECT_NEAR(s.variance(), qu::variance(v), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  qu::Rng r(19);
  qu::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.gaussian();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  qu::RunningStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(VectorMean, AveragesElementwise) {
  qu::VectorMean m;
  m.add(std::vector<double>{1.0, 2.0, 3.0});
  m.add(std::vector<double>{3.0, 2.0, 1.0});
  const auto avg = m.mean();
  ASSERT_EQ(avg.size(), 3u);
  EXPECT_DOUBLE_EQ(avg[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 2.0);
  EXPECT_DOUBLE_EQ(avg[2], 2.0);
}

TEST(VectorMean, EmptyIsSafe) {
  qu::VectorMean m;
  EXPECT_TRUE(m.mean().empty());
  EXPECT_EQ(m.count(), 0u);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(qu::pearson(x, y), 1.0, 1e-12);
  std::vector<double> ny;
  for (double v : y) ny.push_back(-v);
  EXPECT_NEAR(qu::pearson(x, ny), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  const std::vector<double> x{1, 1, 1, 1};
  const std::vector<double> y{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(qu::pearson(x, y), 0.0);
}

TEST(Stats, WelchTSeparatesShiftedSamples) {
  qu::Rng r(23);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(r.gaussian(0.0, 1.0));
    b.push_back(r.gaussian(1.0, 1.0));
  }
  EXPECT_LT(qu::welch_t(a, b), -5.0);
  EXPECT_GT(qu::welch_t(b, a), 5.0);
}

TEST(Stats, ArgmaxAbsFindsNegativePeaks) {
  const std::vector<double> v{0.1, -5.0, 3.0};
  EXPECT_EQ(qu::argmax_abs(v), 1u);
  EXPECT_DOUBLE_EQ(qu::max_abs(v), 5.0);
  EXPECT_DOUBLE_EQ(qu::sum_abs(v), 8.1);
}

TEST(Stats, SubtractElementwise) {
  const std::vector<double> a{3.0, 2.0};
  const std::vector<double> b{1.0, 5.0};
  const auto d = qu::subtract(a, b);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], -3.0);
}

TEST(Table, AlignsAndCounts) {
  qu::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(qu::csv_escape("plain"), "plain");
  EXPECT_EQ(qu::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(qu::csv_escape("q\"q"), "\"q\"\"q\"");
  qu::Table t({"x"});
  t.add_row({"v,1"});
  EXPECT_NE(t.to_csv().find("\"v,1\""), std::string::npos);
}

TEST(Table, FormatDoubleRespectsPrecision) {
  qu::Table t({"x"});
  t.set_precision(2);
  EXPECT_EQ(t.format_double(1.23456), "1.23");
}

TEST(Log, LevelIsSafeToSetAndReadAcrossThreads) {
  // FourPhaseEnv warns from WorkerPool threads while the caller may change
  // the level; a -fsanitize=thread build checks these accesses for races.
  const qu::LogLevel saved = qu::log_level();
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i) qu::log_debug("worker line ", i);
    });
  for (int i = 0; i < 1000; ++i)
    qu::set_log_level(i % 2 == 0 ? qu::LogLevel::Off : qu::LogLevel::Error);
  for (std::thread& t : workers) t.join();
  qu::set_log_level(saved);
  EXPECT_EQ(qu::log_level(), saved);
}
