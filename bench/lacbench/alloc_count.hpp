#pragma once
// Heap-allocation counter of the benchmark binary: alloc_count.cpp
// replaces the global operator new, so every allocation the process makes
// bumps one relaxed atomic -- except those a thread makes inside an
// Uncounted scope, which the benchmark puts around its own bookkeeping in
// the timed loop. process.allocs_per_job is the delta over the
// steady-state timed phase divided by its job count.
#include <cstdint>

namespace lacbench {

std::uint64_t allocations();

/// While alive, this thread's allocations are not counted.
class Uncounted {
 public:
  Uncounted();
  ~Uncounted();
  Uncounted(const Uncounted&) = delete;
  Uncounted& operator=(const Uncounted&) = delete;

 private:
  bool outer_;
};

}  // namespace lacbench
