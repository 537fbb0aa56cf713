// The memo table behind the polyhedral solve cache (poly/set.h) and the
// point-count cache (poly/count.h).
//
// One sharded, content-addressed table maps (domain, canonical key blob)
// to at most two i64, stored inline, so a hit allocates nothing. Domains
// are the persistent store's ("solve", "count"; support/diskcache), which
// sits under the table with the same keys. Keys compare full content (the
// hash only picks shard and bucket), so a hit is always exact. Each table
// belongs to one request (SolveCacheScope), and the request context
// (support/context.h) carries it into pool workers. Outside a request
// nothing is memoized: there is no process-wide table.
//
// Each key is computed at most once per table: a thread that misses claims
// the key, and threads asking for a claimed key wait for its value instead
// of solving it again, which keeps solver counters independent of thread
// interleaving. A wait cannot deadlock: a solve asks for no other key, and
// a count only for solves and for counts over fewer dims.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "poly/affine.h"
#include "support/diskcache.h"
#include "support/metrics.h"

namespace pf::poly {

class MemoTable {
 public:
  using Value = std::array<i64, 2>;

  struct Key {
    Key(const char* domain, std::vector<i64> blob);
    bool operator==(const Key& o) const {
      return std::string_view(domain) == o.domain && blob == o.blob;
    }
    const char* domain;  // a string literal: stored keys keep the pointer
    std::vector<i64> blob;
    std::size_t hash;
  };

  MemoTable() = default;
  MemoTable(const MemoTable&) = delete;
  MemoTable& operator=(const MemoTable&) = delete;

  /// True with the value of `key` in *out (waiting while another thread
  /// computes it). False when the key is unknown: the caller now holds
  /// the claim and must publish() or drop() it.
  bool find_or_claim(const Key& key, Value* out);
  void publish(const Key& key, const Value& value);
  /// Give a claim back unanswered; a waiter then claims the key itself.
  void drop(const Key& key);

  std::size_t size() const;
  void clear();

 private:
  struct Slot {
    Value value{};
    bool ready = false;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<Key, Slot, KeyHash> map;
  };
  Shard& shard(const Key& k) { return shards_[k.hash % shards_.size()]; }

  std::array<Shard, 16> shards_;
};

/// The one memo gate: the calling thread's request table, or nullptr --
/// memoize nothing -- outside a request scope (SolveCacheScope), under a
/// limiting budget (a hit would skip charged work and a degraded answer
/// must never be kept as exact), and while an lp::testing::ExactPathScope
/// is alive (the reference path has no shortcut).
MemoTable* active_memo();

/// The rows of `constraints` sorted by (is_equality, constant,
/// coefficients). Solving in this order makes a solve's work independent
/// of insertion order, as its memo key is.
std::vector<const Constraint*> canonical_order(
    const std::vector<Constraint>& constraints);

/// Key blob of a constraint system, shared by the solve and count caches:
/// {tag, dims, #rows}, then the rows (is_equality, constant,
/// coefficients) in canonical_order, so insertion order never splits
/// entries.
std::vector<i64> canonical_key(i64 tag, std::size_t dims,
                               const std::vector<Constraint>& constraints);

/// The memoized value of `key` in `table` (active_memo()). A hit counts
/// `hit`. A miss counts `miss`, then takes the persistent store's entry or
/// compute()s the value and commits it to both layers -- unless `keep`
/// rejects it, in which case it is returned unmemoized.
template <typename Compute>
MemoTable::Value memoize(MemoTable& table, const MemoTable::Key& key,
                         support::Counter hit, support::Counter miss,
                         Compute&& compute,
                         bool (*keep)(const MemoTable::Value&) = nullptr) {
  MemoTable::Value value{};
  if (table.find_or_claim(key, &value)) {
    support::count(hit);
    return value;
  }
  support::count(miss);
  struct Claim {
    MemoTable& table;
    const MemoTable::Key& key;
    bool held = true;
    ~Claim() {
      if (held) table.drop(key);
    }
  } claim{table, key};
  std::vector<i64> raw;
  if (support::diskcache::lookup(key.domain, key.blob, &raw) &&
      raw.size() == 2) {
    value = {raw[0], raw[1]};
  } else {
    value = compute();
    if (keep != nullptr && !keep(value)) return value;
    support::diskcache::store(key.domain, key.blob, {value[0], value[1]});
  }
  table.publish(key, value);
  claim.held = false;
  return value;
}

}  // namespace pf::poly
