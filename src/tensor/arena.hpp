#pragma once

/// \file arena.hpp
/// Size-bucketed buffer recycling for tensor storage.
///
/// Training loops allocate the same handful of tensor shapes every step
/// (activations, gradients, packed GEMM panels). Routing those buffers
/// through `operator new` per op dominates small-model step time and
/// fragments the heap. The arena keeps released buffers in per-thread
/// free lists keyed by rounded capacity; a steady-state training step is
/// served entirely from the cache, so the heap-allocation counter flat-lines
/// after warm-up (the `allocs/op ~ 0` criterion in BENCH_kernels.json).
///
/// Design rules:
///  - Buffers are raw 64-byte-aligned `Scalar` arrays, *uninitialized* on
///    acquire. Callers that need zeros must fill explicitly (`Tensor(Shape)`
///    still zero-fills; `Tensor::uninitialized` does not).
///  - Every buffer carries a 64-byte header in front of its data (so the
///    data stays 64-byte aligned) that records its bucket capacity and its
///    *home*: the cache of the thread that allocated it.
///  - Owner return, in the style of mimalloc. A buffer released on its home
///    thread goes onto that thread's free list. A buffer released on another
///    thread is pushed (one CAS) onto its home's lock-free remote stack; the
///    owner takes the whole stack with one exchange on its next free-list
///    miss. So a one-way flow (stage k -> k+1, replica -> reference thread)
///    recycles into the producer's cache instead of growing the consumer's,
///    and a steady-state step allocates nothing from the heap. No locks on
///    acquire/release.
///  - On thread exit the cache frees its buffers to the heap and its home is
///    parked; the next new thread adopts it. Homes are never deleted (their
///    number is bounded by the peak count of live threads), so a release
///    after the owner exited is always safe. After a thread's home is gone
///    (thread teardown / static destruction) acquire/release use the plain
///    heap, so tensors with static storage duration stay safe.
///  - The per-thread cache is capped (AVGPIPE_ARENA_MAX_MB, default 256);
///    buffers beyond the cap are freed eagerly.

#include <cstddef>
#include <cstdint>

namespace avgpipe::tensor {
using Scalar = double;
}

namespace avgpipe::tensor::arena {

/// Monotonic counters. `acquires` = all acquire() calls; `hits` = served from
/// a free list; `heap_allocs` = fell through to the heap; `releases` = all
/// release() calls; `heap_frees` = buffers given back to the heap. Each
/// thread counts its own calls (a release is counted by the releasing
/// thread, a cap overflow found while draining the remote stack by the
/// owner).
struct Stats {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t releases = 0;
  std::uint64_t heap_frees = 0;
};

/// Acquire an uninitialized buffer holding at least `n` scalars.
/// n == 0 returns nullptr.
Scalar* acquire(std::size_t n);

/// Return a buffer previously obtained from acquire(n). `n` must be the
/// same count passed to acquire.
void release(Scalar* p, std::size_t n) noexcept;

/// Rounded capacity (in scalars) a request of `n` scalars maps to; exposed
/// so tests can assert bucketing behaviour.
std::size_t bucket_capacity(std::size_t n);

/// Process-wide counters since start (or last reset_stats()): the sum over
/// every thread, live or exited.
Stats stats();
/// The calling thread's counters since it started (or its last
/// reset_stats()); unaffected by other threads, e.g. pool workers.
Stats thread_stats();
/// Restart both stats() and the calling thread's thread_stats() at zero.
void reset_stats();

/// Free every cached buffer of the calling thread's home, remotely released
/// ones included, to the heap.
void clear_thread_cache();

/// Globally enable/disable recycling (acquire/release still work, they just
/// bypass the free lists). Used by tests; enabled by default.
void set_enabled(bool enabled);
bool enabled();

}  // namespace avgpipe::tensor::arena
