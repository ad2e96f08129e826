// Slab-based bump allocator for hot-loop object reuse.
//
// The serving event loop admits millions of requests per run; giving every
// admitted request its own heap allocations (cloned task nodes, dependency
// vectors) made operator new the dominant cost at fleet scale. An Arena
// instead hands out raw bytes from large retained slabs: allocate() is a
// pointer bump, reset() rewinds every slab without returning memory to the
// OS, and slabs grow geometrically in count (never in-place), so long runs
// settle into zero steady-state heap allocations.
//
// There is deliberately no per-object deallocate: lifetimes end
// collectively at reset() (or when the arena dies). Callers that recycle
// fixed-size blocks individually layer an intrusive free list on top — see
// the instance pool in sim/engine.h.
//
// Not thread-safe: one arena per engine (the sharded fleet gives each
// shard's event loop its own).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace mars::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = 64 * 1024;

  /// `slab_bytes` is the default size of each slab; single allocations
  /// larger than it get a dedicated slab of exactly their size. Throws
  /// InvalidArgument when slab_bytes == 0.
  explicit Arena(std::size_t slab_bytes = kDefaultSlabBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t)). The block is valid until reset() or
  /// destruction. bytes == 0 returns a usable (non-null) pointer.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Rewinds every slab: previously returned blocks are invalidated, the
  /// slab memory is retained for reuse. After a reset, an identical
  /// allocation sequence touches the heap zero times.
  void reset();

  /// Number of slabs currently owned (never shrinks).
  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
  /// Total bytes reserved across all slabs.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Bytes handed out since the last reset (including alignment padding).
  [[nodiscard]] std::size_t used() const { return used_; }
  /// allocate() calls since construction (reset does not clear this).
  [[nodiscard]] std::size_t allocation_count() const { return allocations_; }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  /// Appends a slab of at least `min_bytes` and makes it active.
  void add_slab(std::size_t min_bytes);

  std::size_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::size_t active_ = 0;  // slab currently being bumped
  std::size_t offset_ = 0;  // bump position inside the active slab
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t allocations_ = 0;
};

}  // namespace mars::util
