// Counts the process's live heap bytes by replacing every form of the
// global `operator new` and `operator delete`, so every C++ allocation is
// seen whatever the standard library forwards to what. The count is by
// `malloc_usable_size`, so an allocation and its release always move it
// by the same amount.
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_base{0};

// `align` 0 means the default alignment. Returns nullptr on failure.
void* Allocate(std::size_t size, std::size_t align) noexcept {
  void* p = nullptr;
  if (align == 0) {
    p = std::malloc(size == 0 ? 1 : size);
  } else {
    // aligned_alloc wants a positive multiple of the alignment.
    const std::size_t rounded =
        size == 0 ? align : (size + align - 1) / align * align;
    p = std::aligned_alloc(align, rounded);
  }
  if (p == nullptr) return nullptr;
  const int64_t bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

std::size_t Bytes(std::align_val_t align) {
  return static_cast<std::size_t>(align);
}

}  // namespace

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, Bytes(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, Bytes(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, Bytes(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, Bytes(align));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace perfbench {

void ResetHeapPeak() {
  const int64_t live = g_live.load(std::memory_order_relaxed);
  g_base.store(live, std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
}

double HeapPeakMib() {
  const int64_t grown = g_peak.load(std::memory_order_relaxed) -
                        g_base.load(std::memory_order_relaxed);
  return static_cast<double>(grown) / (1024.0 * 1024.0);
}

}  // namespace perfbench
