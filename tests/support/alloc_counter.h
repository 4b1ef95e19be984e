// Test-only heap-allocation counters.
//
// Linking alloc_counter.cc into a test binary replaces the global operator
// new/delete family with forwarding implementations that bump thread-local
// counters. Tests then assert *zero* allocations across a hot-path region,
// turning the engine's zero-steady-state-allocation property into a
// regression test instead of a one-off measurement.
//
// Thread-aware: AllocProbe reads thread_local counters, so a concurrent
// sweep worker or test runner thread cannot perturb the measuring thread's
// counts. ProcessAllocProbe reads process-wide totals instead, for a
// region that fans work out to threads of its own (read it after they
// joined). Only binaries that compile alloc_counter.cc get the replaced
// operators — production binaries keep the system allocator untouched.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dcrd::test {

struct AllocCounts {
  std::uint64_t allocations = 0;    // operator new/new[] calls
  std::uint64_t deallocations = 0;  // operator delete/delete[] calls
  std::uint64_t bytes = 0;          // total bytes requested

  friend AllocCounts operator-(const AllocCounts& a, const AllocCounts& b) {
    return AllocCounts{a.allocations - b.allocations,
                       a.deallocations - b.deallocations, a.bytes - b.bytes};
  }
};

// Counters of the calling thread since thread start.
AllocCounts CurrentThreadAllocCounts();
// Counters of every thread since the process started.
AllocCounts ProcessAllocCounts();

// Scoped delta: counts allocations on the constructing thread between
// construction and the delta() call.
class AllocProbe {
 public:
  AllocProbe() : start_(CurrentThreadAllocCounts()) {}
  [[nodiscard]] AllocCounts delta() const {
    return CurrentThreadAllocCounts() - start_;
  }

 private:
  AllocCounts start_;
};

// Scoped delta over every thread of the process.
class ProcessAllocProbe {
 public:
  ProcessAllocProbe() : start_(ProcessAllocCounts()) {}
  [[nodiscard]] AllocCounts delta() const {
    return ProcessAllocCounts() - start_;
  }

 private:
  AllocCounts start_;
};

}  // namespace dcrd::test
