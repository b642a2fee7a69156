// Cache-line-aligned allocator shared by the chunk staging buffers
// (harness/ordered_fold.h) and the batched engine's SoA slabs
// (sim/batch_engine.h): two slots' (or two lanes') arrays must never share
// a cache line, or concurrent writers would false-share on every store,
// and the batch slabs want 64-byte starts so per-lane rows can be aligned
// by construction.
#pragma once

#include <cstddef>
#include <new>

namespace paserta {

template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;
  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}  // NOLINT
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
};

/// Elements per lane-major row such that every row starts 64-byte aligned
/// when the slab itself is (CacheAlignedAlloc guarantees the start).
template <typename T>
constexpr std::size_t aligned_stride(std::size_t n) {
  const std::size_t per_line = 64 / sizeof(T);
  return (n + per_line - 1) / per_line * per_line;
}

}  // namespace paserta
