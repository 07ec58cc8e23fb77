// Allocator probe for fences that hold a byte count against what glibc's
// malloc handed out.  DM_GLIBC_MALLOC is defined only where that malloc
// serves the test: a sanitizer replaces it, and other C libraries lack
// mallinfo2(), so those fences skip without it.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DM_REPLACED_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DM_REPLACED_MALLOC 1
#endif
#endif

#if defined(__GLIBC__) && !defined(DM_REPLACED_MALLOC)
#define DM_GLIBC_MALLOC 1
#include <malloc.h>  // mallinfo2

/// Bytes in use: arena chunks plus mmapped ones (a large vector lands in
/// either, depending on glibc's moving mmap threshold).
inline std::size_t heap_bytes_in_use() {
  const auto info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif
