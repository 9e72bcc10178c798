// Global operator new replacement counting every heap allocation (the
// technique of the zero-allocation pin in tests/test_obs.cpp).
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_uncounted = false;

void* counted_alloc(std::size_t n) {
  if (!t_uncounted) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace lacbench {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

Uncounted::Uncounted() : outer_(t_uncounted) { t_uncounted = true; }
Uncounted::~Uncounted() { t_uncounted = outer_; }

}  // namespace lacbench

// GCC inlines replaced global operators and then mis-pairs the malloc in
// `new` with the free in `delete[]` at call sites -- a known
// -Wmismatched-new-delete false positive for replaced globals.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
