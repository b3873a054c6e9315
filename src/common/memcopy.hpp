// Overlap-safe byte copy for the data-movement paths.
//
// The runtime's copy-in/copy-back moves (rename staging, group inherit
// copies) are *usually* between disjoint allocations, but nothing in the
// API makes that a proof. memcpy on overlapping ranges is UB; memmove
// costs the same on every libc that matters (it dispatches to the memcpy
// path when the ranges are disjoint), so the data-movement paths use this
// helper and the question disappears.
#pragma once

#include <cstddef>
#include <cstring>

namespace smpss {

/// True when [a, a+an) and [b, b+bn) share at least one byte.
inline bool ranges_overlap(const void* a, std::size_t an, const void* b,
                           std::size_t bn) noexcept {
  const char* ca = static_cast<const char*>(a);
  const char* cb = static_cast<const char*>(b);
  return ca < cb + bn && cb < ca + an;
}

/// Copy `bytes` from `src` to `dst`, correct for overlapping ranges.
inline void safe_copy(void* dst, const void* src, std::size_t bytes) noexcept {
  std::memmove(dst, src, bytes);
}

}  // namespace smpss
