#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace dcrd::test {
namespace {

// Plain struct with no constructor so thread_local init cannot itself
// allocate or recurse through operator new.
thread_local AllocCounts tls_counts;
std::atomic<std::uint64_t> process_allocations{0};
std::atomic<std::uint64_t> process_deallocations{0};
std::atomic<std::uint64_t> process_bytes{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  ++tls_counts.allocations;
  tls_counts.bytes += size;
  process_allocations.fetch_add(1, std::memory_order_relaxed);
  process_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                // aligned_alloc requires size % alignment == 0.
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  ++tls_counts.deallocations;
  process_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

AllocCounts CurrentThreadAllocCounts() { return tls_counts; }

AllocCounts ProcessAllocCounts() {
  return AllocCounts{process_allocations.load(std::memory_order_relaxed),
                     process_deallocations.load(std::memory_order_relaxed),
                     process_bytes.load(std::memory_order_relaxed)};
}

}  // namespace dcrd::test

// Replaceable global allocation functions ([new.delete]); the aligned and
// nothrow forms forward to the same counters so no allocation escapes.
void* operator new(std::size_t size) {
  return dcrd::test::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return dcrd::test::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return dcrd::test::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return dcrd::test::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return dcrd::test::CountedAlloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return dcrd::test::CountedAlloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { dcrd::test::CountedFree(p); }
void operator delete[](void* p) noexcept { dcrd::test::CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  dcrd::test::CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  dcrd::test::CountedFree(p);
}
