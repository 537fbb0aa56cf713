// Unit tests for the support module: checked integer math, rationals,
// matrices, exact linear algebra, string/table helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "json_check.h"
#include "support/error.h"
#include "support/intmath.h"
#include "support/linalg.h"
#include "support/matrix.h"
#include "support/metrics.h"
#include "support/rational.h"
#include "support/strings.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace pf {
namespace {

TEST(IntMath, CheckedAddDetectsOverflow) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_add(INT64_MAX, -1), INT64_MAX - 1);
  EXPECT_THROW(checked_add(INT64_MAX, 1), Error);
  EXPECT_THROW(checked_add(INT64_MIN, -1), Error);
}

TEST(IntMath, CheckedMulDetectsOverflow) {
  EXPECT_EQ(checked_mul(1000000, 1000000), 1000000000000LL);
  EXPECT_THROW(checked_mul(INT64_MAX, 2), Error);
  EXPECT_THROW(checked_mul(INT64_MIN, -1), Error);
}

TEST(IntMath, GcdLcm) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(-4, 6), 12);
  EXPECT_EQ(lcm(0, 5), 0);
}

TEST(IntMath, FloorCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(floor_div(-6, 3), -2);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_THROW(floor_div(1, 0), Error);
  EXPECT_THROW(floor_div(1, -2), Error);
}

TEST(IntMath, ModFloorInRange) {
  for (i64 a = -10; a <= 10; ++a) {
    for (i64 b = 1; b <= 5; ++b) {
      const i64 m = mod_floor(a, b);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, b);
      EXPECT_EQ(floor_div(a, b) * b + m, a);
    }
  }
}

TEST(Rational, CanonicalForm) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_EQ(Rational(0, 5), Rational(0));
  EXPECT_THROW(Rational(1, 0), Error);
}

TEST(Rational, Arithmetic) {
  const Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
  EXPECT_EQ(a.reciprocal(), Rational(2));
  EXPECT_THROW(Rational(0).reciprocal(), Error);
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GE(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, AsIntegerRequiresIntegrality) {
  EXPECT_EQ(Rational(8, 2).as_integer(), 4);
  EXPECT_THROW(Rational(1, 2).as_integer(), Error);
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(3).to_string(), "3");
  EXPECT_EQ(Rational(-3, 2).to_string(), "-3/2");
}

TEST(Matrix, BasicAccessAndBounds) {
  Matrix<i64> m(2, 3, 0);
  m(1, 2) = 7;
  EXPECT_EQ(m(1, 2), 7);
  EXPECT_EQ(m(0, 0), 0);
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 3), Error);
}

TEST(Matrix, InitializerListAndTranspose) {
  Matrix<i64> m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6);
}

TEST(Matrix, AppendRowDefinesWidth) {
  Matrix<i64> m;
  m.append_row({1, 2});
  m.append_row({3, 4});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_THROW(m.append_row({1, 2, 3}), Error);
}

TEST(Matrix, Identity) {
  const auto id = Matrix<i64>::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(id(i, j), i == j ? 1 : 0);
}

TEST(LinAlg, RankOfSingularAndFullRank) {
  RatMatrix full{{Rational(1), Rational(0)}, {Rational(1), Rational(1)}};
  EXPECT_EQ(rank(full), 2u);
  RatMatrix sing{{Rational(1), Rational(2)}, {Rational(2), Rational(4)}};
  EXPECT_EQ(rank(sing), 1u);
  EXPECT_EQ(rank(RatMatrix(0, 0)), 0u);
}

TEST(LinAlg, NullSpaceAnnihilates) {
  RatMatrix m{{Rational(1), Rational(2), Rational(3)},
              {Rational(0), Rational(1), Rational(1)}};
  const RatMatrix ns = null_space(m);
  EXPECT_EQ(ns.rows(), 1u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    Rational acc(0);
    for (std::size_t c = 0; c < m.cols(); ++c) acc += m(r, c) * ns(0, c);
    EXPECT_EQ(acc, Rational(0));
  }
}

TEST(LinAlg, NullSpaceOfEmptyIsIdentity) {
  const RatMatrix ns = null_space(RatMatrix(0, 3));
  ASSERT_EQ(ns.rows(), 3u);
  ASSERT_EQ(ns.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(ns(i, j), Rational(i == j ? 1 : 0));
}

TEST(LinAlg, InvertRoundTrip) {
  RatMatrix m{{Rational(2), Rational(1)}, {Rational(1), Rational(1)}};
  const auto inv = invert(m);
  ASSERT_TRUE(inv.has_value());
  // m * inv == I
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      Rational acc(0);
      for (std::size_t k = 0; k < 2; ++k) acc += m(i, k) * (*inv)(k, j);
      EXPECT_EQ(acc, Rational(i == j ? 1 : 0));
    }
  }
}

TEST(LinAlg, InvertSingularFails) {
  RatMatrix m{{Rational(1), Rational(2)}, {Rational(2), Rational(4)}};
  EXPECT_FALSE(invert(m).has_value());
}

TEST(LinAlg, ToIntegerRowClearsDenominators) {
  // null({2 3}) is spanned by (-3/2, 1); the complement rows come back as
  // primitive integers.
  IntMatrix h;
  h.append_row({2, 3});
  const IntMatrix comp = orthogonal_complement_rows(h);
  ASSERT_EQ(comp.rows(), 1u);
  EXPECT_EQ(comp.row(0), (IntVector{-3, 2}));
  IntMatrix g;
  g.append_row({2, 0, 3});
  g.append_row({0, 3, 1});
  const IntMatrix c2 = orthogonal_complement_rows(g);
  ASSERT_EQ(c2.rows(), 1u);
  EXPECT_EQ(c2.row(0), (IntVector{-9, -2, 6}));
}

TEST(LinAlg, OrthogonalComplementIsOrthogonal) {
  IntMatrix h;
  h.append_row({1, 0, 0});
  const IntMatrix comp = orthogonal_complement_rows(h);
  EXPECT_EQ(comp.rows(), 2u);
  for (std::size_t r = 0; r < comp.rows(); ++r) {
    i64 dot = 0;
    for (std::size_t c = 0; c < h.cols(); ++c) dot += h(0, c) * comp(r, c);
    EXPECT_EQ(dot, 0);
  }
}

TEST(LinAlg, OrthogonalComplementEmptyWhenFullRank) {
  IntMatrix h;
  h.append_row({1, 0});
  h.append_row({0, 1});
  EXPECT_EQ(orthogonal_complement_rows(h).rows(), 0u);
}

TEST(LinAlg, OrthogonalComplementOfNothingIsIdentity) {
  IntMatrix h(0, 3);
  const IntMatrix comp = orthogonal_complement_rows(h);
  EXPECT_EQ(comp.rows(), 3u);
}

TEST(Strings, JoinRepeatPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("xyz", 2), "xyz");
}

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 1), "2.0");
}

TEST(Strings, TextTableAlignsColumns) {
  TextTable t({"name", "val"});
  t.add_row({"longname", "1"});
  t.add_row({"x", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name     | val |"), std::string::npos);
  EXPECT_NE(s.find("| longname | 1   |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Rational, HashMatchesEquality) {
  // Equal values (canonical form) must hash equal, whatever spelling
  // they were constructed from.
  const std::hash<Rational> h;
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(h(Rational(2, 4)), h(Rational(1, 2)));
  EXPECT_EQ(h(Rational(-3, 6)), h(Rational(1, -2)));
  EXPECT_EQ(h(Rational(5)), h(Rational(10, 2)));
  // Distinct values should (with overwhelming probability) differ.
  EXPECT_NE(h(Rational(1, 2)), h(Rational(1, 3)));
  EXPECT_NE(h(Rational(1, 2)), h(Rational(-1, 2)));
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}}) {
    support::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(101);
    pool.parallel_for(1, 101, [&](std::size_t i) { hits[i].fetch_add(1); });
    EXPECT_EQ(hits[0].load(), 0) << "threads=" << threads;
    for (std::size_t i = 1; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  support::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  support::ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> fs;
  for (int i = 1; i <= 10; ++i)
    fs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  for (auto& f : fs) f.get();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 32,
                                 [](std::size_t i) {
                                   if (i == 7)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 8, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, DefaultJobsOverride) {
  const std::size_t before = support::default_jobs();
  EXPECT_GE(before, 1u);
  support::set_default_jobs(3);
  EXPECT_EQ(support::default_jobs(), 3u);
  support::set_default_jobs(0);  // back to the environment default
  EXPECT_EQ(support::default_jobs(), before);
}

TEST(ThreadPool, ParseJobsValueIsStrict) {
  EXPECT_EQ(support::parse_jobs_value("1"), 1u);
  EXPECT_EQ(support::parse_jobs_value("16"), 16u);
  EXPECT_FALSE(support::parse_jobs_value("0").has_value());
  EXPECT_FALSE(support::parse_jobs_value("-2").has_value());
  EXPECT_FALSE(support::parse_jobs_value("abc").has_value());
  EXPECT_FALSE(support::parse_jobs_value("4x").has_value());
  EXPECT_FALSE(support::parse_jobs_value("4 ").has_value());
  EXPECT_FALSE(support::parse_jobs_value("").has_value());
  EXPECT_FALSE(support::parse_jobs_value("99999999999999999999").has_value());
}

TEST(ThreadPool, InvalidJobsEnvFallsBackToHardware) {
  // An unparseable POLYFUSE_JOBS must not crash or yield 0 workers; it
  // warns (once) and uses the hardware default.
  char* old = std::getenv("POLYFUSE_JOBS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;
  ::setenv("POLYFUSE_JOBS", "not-a-number", 1);
  support::set_default_jobs(0);
  EXPECT_GE(support::default_jobs(), 1u);
  ::setenv("POLYFUSE_JOBS", "0", 1);
  EXPECT_GE(support::default_jobs(), 1u);
  if (had)
    ::setenv("POLYFUSE_JOBS", saved.c_str(), 1);
  else
    ::unsetenv("POLYFUSE_JOBS");
}

TEST(Strings, ParseI64IsStrict) {
  EXPECT_EQ(pf::parse_i64("42"), 42);
  EXPECT_EQ(pf::parse_i64("-7"), -7);
  EXPECT_EQ(pf::parse_i64("0"), 0);
  EXPECT_FALSE(pf::parse_i64("").has_value());
  EXPECT_FALSE(pf::parse_i64("7up").has_value());
  EXPECT_FALSE(pf::parse_i64(" 7").has_value());
  EXPECT_FALSE(pf::parse_i64("7 ").has_value());
  EXPECT_FALSE(pf::parse_i64("nine").has_value());
  EXPECT_FALSE(pf::parse_i64("99999999999999999999999").has_value());
}

TEST(Stats, CountersAccumulateAndReset) {
  auto& stats = support::current_metrics();
  stats.reset();
  support::count(support::Counter::kSimplexPivots);
  support::count(support::Counter::kSimplexPivots, 4);
  EXPECT_EQ(stats.get(support::Counter::kSimplexPivots), 5);
  EXPECT_EQ(stats.get(support::Counter::kIlpNodes), 0);
  stats.reset();
  EXPECT_EQ(stats.get(support::Counter::kSimplexPivots), 0);
}

TEST(Stats, PhaseTimerRecordsWallTime) {
  auto& stats = support::current_metrics();
  stats.reset();
  {
    support::PhaseTimer timer("unit_test_phase");
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(stats.phase_seconds("unit_test_phase"), 0.0);
  EXPECT_EQ(stats.phase_seconds("no_such_phase"), 0.0);
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"unit_test_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  stats.reset();
}

TEST(Stats, ResetDropsPhaseTimings) {
  auto& stats = support::current_metrics();
  stats.reset();
  stats.add_phase_seconds("reset_me", 1.5);
  EXPECT_GT(stats.phase_seconds("reset_me"), 0.0);
  stats.reset();
  EXPECT_EQ(stats.phase_seconds("reset_me"), 0.0);
  EXPECT_EQ(stats.to_json().find("\"reset_me\""), std::string::npos);
}

TEST(Stats, PhaseAccumulationIsThreadSafe) {
  auto& stats = support::current_metrics();
  stats.reset();
  constexpr int kThreads = 4, kAdds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&stats] {
      for (int i = 0; i < kAdds; ++i)
        stats.add_phase_seconds("mt_phase", 0.001);
    });
  for (auto& t : threads) t.join();
  EXPECT_NEAR(stats.phase_seconds("mt_phase"), kThreads * kAdds * 0.001,
              1e-6);
  stats.reset();
}

TEST(Stats, ConcurrentPhaseTimersOnSamePhaseAccumulate) {
  auto& stats = support::current_metrics();
  stats.reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      support::PhaseTimer timer("mt_timer_phase");
      volatile double sink = 0;
      for (int i = 0; i < 20000; ++i) sink = sink + 1.0;
    });
  for (auto& t : threads) t.join();
  EXPECT_GT(stats.phase_seconds("mt_timer_phase"), 0.0);
  stats.reset();
}

// Every test records into its own request-scoped tracer.
TEST(TracerTest, DisabledModeRecordsNothing) {
  support::Tracer tracer(/*spans=*/false, /*remarks=*/false);
  support::TracerScope scope(&tracer);
  {
    support::TraceSpan span("cat", "outer");
    EXPECT_FALSE(span.active());
    span.attr("k", std::string("v"));  // no-op, must not crash
    span.attr("n", i64{3});
    support::remark("cat", "dropped");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, SpansNestAndRecordDepth) {
  support::Tracer tracer(/*spans=*/true, /*remarks=*/false);
  support::TracerScope scope(&tracer);
  {
    support::TraceSpan outer("cat", "outer");
    EXPECT_TRUE(outer.active());
    {
      support::TraceSpan inner("cat", "inner");
      inner.attr("n", i64{7});
    }
    { support::TraceSpan sibling("cat", "sibling"); }
  }
  const std::vector<support::TraceEvent> spans = tracer.events();
  ASSERT_EQ(spans.size(), 3u);
  auto find = [&](const std::string& name) -> const support::TraceEvent& {
    for (const support::TraceEvent& s : spans)
      if (s.name == name) return s;
    ADD_FAILURE() << "span '" << name << "' not recorded";
    return spans.front();
  };
  const support::TraceEvent& outer = find("outer");
  const support::TraceEvent& inner = find("inner");
  const support::TraceEvent& sibling = find("sibling");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(sibling.depth, 1);
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_GE(outer.dur_us, inner.dur_us);
  EXPECT_LE(outer.ts_us, inner.ts_us);
  ASSERT_EQ(inner.attrs.size(), 1u);
  EXPECT_EQ(inner.attrs[0].first, "n");
  EXPECT_EQ(inner.attrs[0].second, "7");
}

TEST(TracerTest, RemarksKeepEmissionOrder) {
  support::Tracer tracer(/*spans=*/false, /*remarks=*/true);
  support::TracerScope scope(&tracer);
  support::remark("a", "first");
  support::remark("b", "second", {{"k", "v"}});
  support::remark("a", "third");
  const std::vector<support::TraceEvent> remarks = tracer.events();
  ASSERT_EQ(remarks.size(), 3u);
  EXPECT_EQ(remarks[0].seq, 0u);
  EXPECT_EQ(remarks[1].seq, 1u);
  EXPECT_EQ(remarks[2].seq, 2u);
  EXPECT_EQ(remarks[0].name, "first");
  EXPECT_EQ(remarks[2].name, "third");
  const std::string text = tracer.remarks_text();
  const std::size_t p1 = text.find("first");
  const std::size_t p2 = text.find("second");
  const std::size_t p3 = text.find("third");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_NE(text.find("k=v"), std::string::npos);
}

TEST(TracerTest, JsonOutputsAreWellFormed) {
  support::Tracer tracer(/*spans=*/true, /*remarks=*/true);
  support::TracerScope scope(&tracer);
  {
    support::TraceSpan span("cat", "na\"me");
    span.attr("path", std::string("a\\b\nc"));
  }
  support::remark("cat", "quote \" and tab \t", {{"k", "v\\w"}});
  const std::string trace = tracer.chrome_trace_json();
  EXPECT_TRUE(pf::testjson::valid(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  const std::string remarks = tracer.remarks_json();
  EXPECT_TRUE(pf::testjson::valid(remarks)) << remarks;
}

TEST(TraceJson, EscapesSpecialCharacters) {
  EXPECT_EQ(support::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(support::json_escape("\t\r"), "\\t\\r");
  EXPECT_EQ(support::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ErrorMacros, CheckAndFail) {
  EXPECT_NO_THROW(PF_CHECK(1 + 1 == 2));
  EXPECT_THROW(PF_CHECK(1 == 2), Error);
  try {
    PF_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace pf
