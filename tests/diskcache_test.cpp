// Unit tests for the crash-safe persistent solve cache
// (src/support/diskcache.h): roundtrips, the run-id guard, corruption
// quarantine (truncation and bit flips), the LRU size cap, fault
// injection, and fingerprint invalidation.
#include "support/diskcache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "support/metrics.h"

namespace pf::support {
namespace {

namespace fs = std::filesystem;
namespace dc = diskcache;

std::string fresh_dir(const std::string& tag) {
  const std::string d = std::string(::testing::TempDir()) + "pfdc_" +
                        std::to_string(::getpid()) + "_" + tag;
  fs::remove_all(d);
  return d;
}

// Each test reconfigures the process-wide cache; the fixture guarantees
// a clean slate and disables the cache afterwards so tests compose.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    ASSERT_TRUE(dc::configure(dir_, /*max_mb=*/64));
    dc::set_injections({});
    dc::set_fingerprint_salt("");
  }
  void TearDown() override {
    dc::set_injections({});
    dc::set_fingerprint_salt("");
    dc::configure("", 0);
    fs::remove_all(dir_);
  }

  // Entries written by this run are invisible to this run (the warm/cold
  // guard); renewing the run id simulates a process restart.
  void restart() { dc::renew_run_id(); }

  std::vector<fs::path> entries() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.is_regular_file() && e.path().extension() == ".pfc")
        out.push_back(e.path());
    return out;
  }

  std::string dir_;
};

TEST_F(DiskCacheTest, RoundTripAfterRestart) {
  const std::vector<i64> key = {1, 2, 3, -4};
  const std::vector<i64> value = {42, -7};
  dc::store("solve", key, value);

  // Same run: the entry must be invisible (determinism guard).
  std::vector<i64> got;
  EXPECT_FALSE(dc::lookup("solve", key, &got));

  restart();
  ASSERT_TRUE(dc::lookup("solve", key, &got));
  EXPECT_EQ(got, value);

  // Different domain, same key: distinct entry.
  EXPECT_FALSE(dc::lookup("count", key, &got));
}

TEST_F(DiskCacheTest, DistinctKeysDistinctEntries) {
  dc::store("solve", {1}, {10});
  dc::store("solve", {2}, {20});
  restart();
  std::vector<i64> got;
  ASSERT_TRUE(dc::lookup("solve", {1}, &got));
  EXPECT_EQ(got, std::vector<i64>({10}));
  ASSERT_TRUE(dc::lookup("solve", {2}, &got));
  EXPECT_EQ(got, std::vector<i64>({20}));
  EXPECT_EQ(entries().size(), 2u);
}

TEST_F(DiskCacheTest, EmptyValueRoundTrips) {
  dc::store("solve", {7, 7}, {});
  restart();
  std::vector<i64> got = {99};
  ASSERT_TRUE(dc::lookup("solve", {7, 7}, &got));
  EXPECT_TRUE(got.empty());
}

TEST_F(DiskCacheTest, TruncatedEntryIsQuarantinedMiss) {
  dc::store("solve", {5, 6}, {11, 12, 13});
  restart();
  auto files = entries();
  ASSERT_EQ(files.size(), 1u);

  // Truncate to every possible prefix length; each is a miss, never a
  // crash or a wrong value. Re-store after each round.
  std::error_code ec;
  const auto full = fs::file_size(files[0]);
  for (std::uintmax_t len : {std::uintmax_t(0), full / 2, full - 1}) {
    fs::resize_file(files[0], len, ec);
    ASSERT_FALSE(ec);
    std::vector<i64> got;
    EXPECT_FALSE(dc::lookup("solve", {5, 6}, &got)) << "len=" << len;
    // The corrupt file was moved out of the live directory.
    EXPECT_FALSE(fs::exists(files[0]));
    dc::store("solve", {5, 6}, {11, 12, 13});
    restart();
    files = entries();
    ASSERT_EQ(files.size(), 1u);
  }
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
  EXPECT_GE(current_metrics().get(Counter::kDiskCacheCorrupt), 3);
}

TEST_F(DiskCacheTest, BitFlipFuzzNeverReturnsWrongValue) {
  const std::vector<i64> key = {17, -3, 1000000007};
  const std::vector<i64> value = {123456789, -987654321, 0, 5};
  std::mt19937 rng(1234);
  for (int round = 0; round < 32; ++round) {
    dc::store("solve", key, value);
    restart();
    auto files = entries();
    ASSERT_EQ(files.size(), 1u);
    // Flip one random bit anywhere in the entry.
    std::ifstream in(files[0], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_FALSE(bytes.empty());
    const std::size_t pos = rng() % bytes.size();
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << (rng() % 8)));
    {
      std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    std::vector<i64> got;
    // Either a verified miss (checksum/magic/key mismatch -> quarantine)
    // or -- never -- a value different from what was stored.
    if (dc::lookup("solve", key, &got)) {
      EXPECT_EQ(got, value);
    }
    fs::remove_all(fs::path(dir_) / "quarantine");
    for (const auto& f : entries()) fs::remove(f);
  }
}

TEST_F(DiskCacheTest, RunIdGuardHidesOwnWritesOnly) {
  dc::store("solve", {1}, {1});
  restart();  // now "previous run"
  dc::store("solve", {2}, {2});
  std::vector<i64> got;
  EXPECT_TRUE(dc::lookup("solve", {1}, &got));   // other run: visible
  EXPECT_FALSE(dc::lookup("solve", {2}, &got));  // own run: hidden
}

TEST_F(DiskCacheTest, FingerprintSaltInvalidates) {
  dc::store("solve", {9}, {90});
  restart();
  std::vector<i64> got;
  ASSERT_TRUE(dc::lookup("solve", {9}, &got));

  // A "rebuilt solver" (different fingerprint) must not consume the old
  // entry -- and its own writes land under the new fingerprint.
  dc::set_fingerprint_salt("v2");
  EXPECT_FALSE(dc::lookup("solve", {9}, &got));
  dc::store("solve", {9}, {91});
  restart();
  ASSERT_TRUE(dc::lookup("solve", {9}, &got));
  EXPECT_EQ(got, std::vector<i64>({91}));
  dc::set_fingerprint_salt("");
  ASSERT_TRUE(dc::lookup("solve", {9}, &got));
  EXPECT_EQ(got, std::vector<i64>({90}));
}

TEST_F(DiskCacheTest, LruSweepEnforcesSizeCap) {
  // Reconfigure with a 1 MB cap and write ~4 MB of entries.
  ASSERT_TRUE(dc::configure(dir_, /*max_mb=*/1));
  const std::vector<i64> big(8192, 7);  // 64 KiB payload
  for (i64 i = 0; i < 64; ++i) dc::store("sweep", {i}, big);
  dc::sweep_now();
  std::uintmax_t total = 0;
  for (const auto& f : entries()) total += fs::file_size(f);
  EXPECT_LE(total, std::uintmax_t(1) << 20);
  EXPECT_GT(entries().size(), 0u);
  EXPECT_GT(current_metrics().get(Counter::kDiskCacheEvictions), 0);
}

TEST_F(DiskCacheTest, InjectedReadFaultIsMiss) {
  dc::store("solve", {3}, {30});
  restart();
  // Fail the first read after this point; the second read succeeds.
  dc::set_injections({Injection{BudgetSite::kDiskcacheRead, 0, false}});
  std::vector<i64> got;
  EXPECT_FALSE(dc::lookup("solve", {3}, &got));
  EXPECT_TRUE(dc::lookup("solve", {3}, &got));
  EXPECT_EQ(got, std::vector<i64>({30}));
}

TEST_F(DiskCacheTest, InjectedWriteFaultSkipsWrite) {
  dc::set_injections({Injection{BudgetSite::kDiskcacheWrite, 0, false}});
  dc::store("solve", {4}, {40});  // dropped
  dc::store("solve", {5}, {50});  // committed
  restart();
  std::vector<i64> got;
  EXPECT_FALSE(dc::lookup("solve", {4}, &got));
  EXPECT_TRUE(dc::lookup("solve", {5}, &got));
}

TEST_F(DiskCacheTest, DisabledCacheIsInert) {
  dc::configure("", 0);
  EXPECT_FALSE(dc::enabled());
  dc::store("solve", {1}, {1});
  std::vector<i64> got;
  EXPECT_FALSE(dc::lookup("solve", {1}, &got));
}

TEST_F(DiskCacheTest, UnwritableDirectoryDisables) {
  EXPECT_FALSE(dc::configure("/proc/definitely/not/writable", 64));
  EXPECT_FALSE(dc::enabled());
}

}  // namespace
}  // namespace pf::support
