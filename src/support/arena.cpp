#include "support/arena.h"

#include <algorithm>

#include "support/error.h"
#include "support/metrics.h"

namespace pf::support {

namespace {

// Releasing to an empty arena trims retained chunks down to this many
// bytes, so one pathological solve (or dependence pair) cannot pin its
// high-water mark for the rest of the compile.
constexpr std::size_t kRetainBytes = 1 << 20;

}  // namespace

Arena::Arena(std::size_t min_chunk_bytes) : min_chunk_bytes_(min_chunk_bytes) {
  PF_CHECK(min_chunk_bytes_ > 0);
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  PF_CHECK(align != 0 && (align & (align - 1)) == 0);
  if (bytes == 0) bytes = 1;
  // Advance through existing chunks (warm from earlier scopes) before
  // reserving a new one.
  for (;;) {
    if (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.size) {
        c.used = aligned + bytes;
        return c.data.get() + aligned;
      }
      if (cur_ + 1 < chunks_.size()) {
        ++cur_;
        chunks_[cur_].used = 0;
        continue;
      }
    }
    Chunk fresh;
    fresh.size = std::max(min_chunk_bytes_, bytes + align);
    fresh.data = std::make_unique<char[]>(fresh.size);
    count(Counter::kFastlaneArenaBytes, static_cast<i64>(fresh.size));
    if (!chunks_.empty() && chunks_[cur_].used > 0) ++cur_;
    chunks_.insert(chunks_.begin() + static_cast<long>(cur_),
                   std::move(fresh));
    chunks_[cur_].used = 0;
  }
}

void Arena::release(const Marker& m) {
  if (chunks_.empty()) return;
  PF_CHECK(m.chunk < chunks_.size());
  cur_ = m.chunk;
  chunks_[cur_].used = m.used;
  for (std::size_t i = cur_ + 1; i < chunks_.size(); ++i) chunks_[i].used = 0;
  if (m.chunk == 0 && m.used == 0) {
    // Fully empty: trim oversized retained storage back to the cap.
    std::size_t keep = 0, total = 0;
    while (keep < chunks_.size() && total < kRetainBytes)
      total += chunks_[keep++].size;
    chunks_.resize(std::max<std::size_t>(keep, 1));
  }
}

Arena& Arena::thread_local_instance() {
  thread_local Arena arena;
  return arena;
}

}  // namespace pf::support
