#include "poly/memo.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "lp/simplex.h"
#include "support/budget.h"
#include "support/context.h"

namespace pf::poly {

MemoTable::Key::Key(const char* domain, std::vector<i64> blob)
    : domain(domain), blob(std::move(blob)), hash(0) {
  for (const i64 v : this->blob) hash_combine(hash, std::hash<i64>{}(v));
}

bool MemoTable::find_or_claim(const Key& key, Value* out) {
  Shard& s = shard(key);
  std::unique_lock<std::mutex> lock(s.mu);
  auto it = s.map.end();
  s.cv.wait(lock, [&] {
    it = s.map.find(key);
    return it == s.map.end() || it->second.ready;
  });
  if (it == s.map.end()) {
    s.map.emplace(key, Slot{});
    return false;
  }
  *out = it->second.value;
  return true;
}

void MemoTable::publish(const Key& key, const Value& value) {
  Shard& s = shard(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.insert_or_assign(key, Slot{value, true});
  }
  s.cv.notify_all();
}

void MemoTable::drop(const Key& key) {
  Shard& s = shard(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.erase(key);
  }
  s.cv.notify_all();
}

std::size_t MemoTable::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

void MemoTable::clear() {
  for (Shard& s : shards_) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.map.clear();
    }
    s.cv.notify_all();
  }
}

MemoTable* active_memo() {
  MemoTable* memo = support::current_context().memo;
  if (memo == nullptr || support::budget_limited() ||
      lp::testing::exact_path_forced())
    return nullptr;
  return memo;
}

std::vector<const Constraint*> canonical_order(
    const std::vector<Constraint>& constraints) {
  std::vector<const Constraint*> rows;
  rows.reserve(constraints.size());
  for (const Constraint& c : constraints) rows.push_back(&c);
  std::sort(rows.begin(), rows.end(),
            [](const Constraint* a, const Constraint* b) {
              if (a->is_equality != b->is_equality) return b->is_equality;
              if (a->expr.const_term() != b->expr.const_term())
                return a->expr.const_term() < b->expr.const_term();
              return a->expr.coeffs() < b->expr.coeffs();
            });
  return rows;
}

std::vector<i64> canonical_key(i64 tag, std::size_t dims,
                               const std::vector<Constraint>& constraints) {
  std::vector<i64> blob;
  blob.reserve(3 + constraints.size() * (dims + 2) + dims + 1);
  blob.push_back(tag);
  blob.push_back(static_cast<i64>(dims));
  blob.push_back(static_cast<i64>(constraints.size()));
  for (const Constraint* c : canonical_order(constraints)) {
    blob.push_back(c->is_equality ? 1 : 0);
    blob.push_back(c->expr.const_term());
    for (std::size_t k = 0; k < dims; ++k) blob.push_back(c->expr.coeff(k));
  }
  return blob;
}

}  // namespace pf::poly
