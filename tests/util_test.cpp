#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/matrix.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace distgnn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(AlignedBuffer, AlignmentAndValueInit) {
  AlignedBuffer<float> buf(1000, 1.5f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  for (const float v : buf) EXPECT_EQ(v, 1.5f);
}

TEST(AlignedBuffer, CopyAndMove) {
  AlignedBuffer<int> a(10, 3);
  AlignedBuffer<int> b = a;
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 3);
  b[0] = 7;
  EXPECT_EQ(a[0], 3);  // deep copy
  AlignedBuffer<int> c = std::move(a);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c[5], 3);
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.begin(), buf.end());
}

TEST(DenseMatrix, RowAccessAndViews) {
  DenseMatrix m(4, 3, 0.0f);
  m.at(2, 1) = 5.0f;
  EXPECT_EQ(m.view().at(2, 1), 5.0f);
  EXPECT_EQ(m.cview().at(2, 1), 5.0f);
  EXPECT_EQ(m.row(2)[1], 5.0f);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(DenseMatrix, ResizeDiscardZeroes) {
  DenseMatrix m(2, 2, 9.0f);
  m.resize_discard(3, 3);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(DenseMatrix, ScatterRowsSetsOrAddsOnlyTheListedRows) {
  // More rows than the prefetch runs ahead, with gaps, at a width that
  // spans several cache lines.
  const std::size_t n = 101, d = 37;
  std::vector<vid_t> rows;
  for (vid_t r = 1; r < static_cast<vid_t>(n); r += 3) rows.push_back(r);
  DenseMatrix src(rows.size(), d);
  for (std::size_t i = 0; i < src.size(); ++i) src.data()[i] = static_cast<real_t>(i) * 0.5f;
  for (const bool add : {false, true}) {
    DenseMatrix dst(n, d, 2.0f);
    scatter_rows(src.cview(), rows, dst.view(), add);
    std::size_t next = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const bool listed = next < rows.size() && static_cast<std::size_t>(rows[next]) == r;
      for (std::size_t j = 0; j < d; ++j) {
        const real_t expect = listed ? src.at(next, j) + (add ? 2.0f : 0.0f) : 2.0f;
        EXPECT_EQ(dst.at(r, j), expect) << "row " << r << ", add " << add;
      }
      if (listed) ++next;
    }
  }
  DenseMatrix dst(n, d);
  EXPECT_THROW(scatter_rows(src.cview(), std::span<const vid_t>(rows).first(3), dst.view(), false),
               std::invalid_argument);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render("Title");
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt_int(-42), "-42");
}

TEST(Options, ParsesKeyValueForms) {
  // Note: a bare "--flag" must be last or followed by another --option,
  // otherwise the next token is consumed as its value.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7", "pos", "--flag"};
  Options opts(6, argv);
  EXPECT_EQ(opts.get_int("alpha", 0), 3);
  EXPECT_EQ(opts.get_int("beta", 0), 7);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_FALSE(opts.get_bool("missing", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos");
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opts(1, argv);
  EXPECT_EQ(opts.get("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(opts.get_double("x", 2.5), 2.5);
}

TEST(Options, RequireKnownAcceptsValidFlags) {
  const char* argv[] = {"prog", "--rate=100", "--workers=2"};
  Options opts(3, argv);
  EXPECT_NO_THROW(opts.require_known({"rate", "workers", "batch"}));
}

TEST(Options, RequireKnownRejectsUnknownFlags) {
  const char* argv[] = {"prog", "--rate=100", "--wrokers=2"};  // typo
  Options opts(3, argv);
  try {
    opts.require_known({"rate", "workers"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the offending flag and lists the valid ones.
    EXPECT_NE(std::string(e.what()).find("--wrokers"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos);
  }
}

}  // namespace
}  // namespace distgnn
