// Integer kernels for the tree arena's per-attribute count rows
// (DESIGN.md §15). Every kernel is a plain loop of pure integer arithmetic,
// written to auto-vectorize under -O2; the results are exact in any lane
// order, so a build for a wider target (-DREMO_SIMD=ON, -march=x86-64-v3)
// plans bit-identically to the default one.
//
// Layout contract: the tree arena pads each count row to kU32Lanes elements
// (kAlign bytes) and allocates the backing vectors with AlignedVector, so a
// row never straddles more cache lines than necessary and full-width vector
// loops need no scalar tail. Padding elements are always zero; kernels may
// therefore run over either the logical or the padded width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace remo::simd {

/// Row alignment in bytes: one cache line, which is also the AVX-512
/// register width — rows padded to this never split a vector load.
inline constexpr std::size_t kAlign = 64;
/// uint32 lanes per aligned row block.
inline constexpr std::size_t kU32Lanes = kAlign / sizeof(std::uint32_t);

/// Padded row width for `n` attributes: the smallest multiple of kU32Lanes
/// holding n (0 stays 0 — an attribute-less tree has empty rows).
constexpr std::size_t padded_count(std::size_t n) noexcept {
  return (n + kU32Lanes - 1) / kU32Lanes * kU32Lanes;
}

/// Whether this binary was compiled for an AVX2 target (-DREMO_SIMD=ON).
constexpr bool compiled_with_avx2() noexcept {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}
/// Whether the kernels run vectorized for AVX2: the same as
/// compiled_with_avx2(), since the build target is the only switch.
constexpr bool enabled() noexcept { return compiled_with_avx2(); }

/// Minimal C++17 aligned allocator: every allocation is kAlign-aligned, so
/// row 0 of an AlignedVector-backed arena is aligned and — with padded
/// strides — so is every subsequent row, across every reallocation.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

// ---- kernels ---------------------------------------------------------------
// All loads are unaligned-tolerant (callers sometimes pass plain
// std::vector-backed rows, e.g. BuildItem locals); alignment is a locality
// optimization, not a correctness requirement.

/// Σ row[0..n) as an exact 64-bit integer.
inline std::uint64_t sum_u32(const std::uint32_t* row, std::size_t n) noexcept {
  std::uint64_t s = 0;
  for (std::size_t m = 0; m < n; ++m) s += row[m];
  return s;
}

/// Σ v[0..n) (exact; the walk-delta rows hold signed out-count deltas).
inline std::int64_t sum_i64(const std::int64_t* v, std::size_t n) noexcept {
  std::int64_t s = 0;
  for (std::size_t m = 0; m < n; ++m) s += v[m];
  return s;
}

/// True iff any of v[0..n) is nonzero.
inline bool any_nonzero_i64(const std::int64_t* v, std::size_t n) noexcept {
  for (std::size_t m = 0; m < n; ++m)
    if (v[m] != 0) return true;
  return false;
}

/// row[m] = uint32(int64(row[m]) + delta[m]) for m in [0, n) — the in-count
/// update of a propagation hop. Deltas never underflow a live row (they are
/// exact inverse sums of child contributions), so the narrowing cast loses
/// nothing.
inline void add_i64_to_u32(std::uint32_t* row, const std::int64_t* delta,
                           std::size_t n) noexcept {
  for (std::size_t m = 0; m < n; ++m)
    row[m] =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(row[m]) + delta[m]);
}

/// dst[m] = sign * int64(src[m]) for m in [0, n) — loads a signed walk-delta
/// row from an unsigned out-count row.
inline void load_i64_from_u32(std::int64_t* dst, const std::uint32_t* src,
                              std::size_t n, std::int64_t sign) noexcept {
  for (std::size_t m = 0; m < n; ++m) dst[m] = sign * static_cast<std::int64_t>(src[m]);
}

}  // namespace remo::simd
