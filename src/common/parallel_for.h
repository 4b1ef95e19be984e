// The one parallel loop: an index range fanned over a few threads.
//
// Indices are claimed in order from one atomic cursor (no work stealing,
// no reordering of the claim sequence) and complete in any order; each
// call of body(index, worker) must confine its writes to index-owned
// storage and to the scratch of `worker`, a dense id in [0, workers) that
// no two concurrent calls share. The experiment sweep (SweepRunner, one
// simulation per index) and the DCRD epoch solve (DrSolver::SolveEpoch,
// one subscriber per index) both run on it; there is no second pool.
//
// Nesting rule: a ParallelFor started on a thread that is itself running a
// fan-out's body runs inline on that thread, so a pooled sweep cell never
// multiplies the thread count. With one thread (or one index) the loop
// runs inline on the calling thread in index order — the serial path —
// and that thread's nested loops still fan out.
//
// Failures: if any body throws, unclaimed indices are abandoned, every
// worker is joined, and the exception of the lowest failing index is
// rethrown unchanged.
#pragma once

#include <cstddef>
#include <functional>

namespace dcrd {

// std::thread::hardware_concurrency(), at least 1.
int HardwareThreads();

// How many workers ParallelFor(count, threads, ...) would run on when
// called from this thread: min(threads, count), at least 1, and 1 inside
// another fan-out's body.
std::size_t ParallelWorkers(std::size_t count, int threads);

void ParallelFor(
    std::size_t count, int threads,
    const std::function<void(std::size_t index, std::size_t worker)>& body);

}  // namespace dcrd
