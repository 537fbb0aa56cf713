// Chunked bump allocator for the solver hot loops.
//
// The simplex kernel's int64 instance (lp/simplex.cpp) builds a compact
// tableau for every solve; with thousands of solves per compile,
// per-solve std::vector heap churn is measurable. An Arena hands out
// storage by bumping a pointer into large chunks and releases it
// wholesale: a solve marks the arena on entry, allocates its tableau
// rows, and releases back to the marker on exit (ArenaScope), so the same
// warm chunk is reused by every solve on the thread.
//
// Only trivially-destructible payloads are supported (the int64 instance
// stores raw i64 / __int128 rows; BigInt cells live on the heap). Arenas are not thread safe; use the per-thread
// instance (thread_local_instance) from solver code.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/intmath.h"

namespace pf::support {

class Arena {
 public:
  explicit Arena(std::size_t min_chunk_bytes = 64 * 1024);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (a power of two). The memory
  /// is uninitialized and valid until a release() past its marker.
  void* allocate(std::size_t bytes, std::size_t align);

  /// An uninitialized array of `n` trivially-destructible Ts.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is released without running destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// A point in the allocation sequence; release(mark()) frees everything
  /// allocated in between (LIFO discipline -- see ArenaScope).
  struct Marker {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  Marker mark() const { return Marker{cur_, chunk_used()}; }
  void release(const Marker& m);

  /// The calling thread's arena (created on first use).
  static Arena& thread_local_instance();

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::size_t chunk_used() const {
    return chunks_.empty() ? 0 : chunks_[cur_].used;
  }

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;  // chunk currently bump-allocated from
  std::size_t min_chunk_bytes_;
};

/// RAII mark/release pair: everything the scope's body allocates from the
/// arena is reclaimed on destruction, including on exception unwind (the
/// int64 instance bails out mid-solve on overflow).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), marker_(arena.mark()) {}
  ~ArenaScope() { arena_.release(marker_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Marker marker_;
};

}  // namespace pf::support
