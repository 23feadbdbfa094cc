#ifndef GEMREC_TESTS_TESTING_COUNTING_ALLOCATOR_H_
#define GEMREC_TESTS_TESTING_COUNTING_ALLOCATOR_H_

// Replaces the global allocator with one that counts every operator
// new, for tests that pin a zero-allocation contract. Include it in
// exactly one source file of a test binary of its own: the replacement
// is program-wide, and the counter would otherwise pick up unrelated
// gtest bookkeeping from neighboring suites.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace gemrec::testing {

inline std::atomic<size_t> g_allocations{0};

/// Heap allocations made through operator new so far.
inline size_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace gemrec::testing

void* operator new(std::size_t size) {
  gemrec::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  gemrec::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  gemrec::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // GEMREC_TESTS_TESTING_COUNTING_ALLOCATOR_H_
