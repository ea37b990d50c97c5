#include "tensor/arena.hpp"

#include <atomic>
#include <cassert>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/env.hpp"

namespace avgpipe::tensor::arena {

namespace {

constexpr std::size_t kAlignment = 64;  // cache line; also max SIMD width
constexpr std::size_t kGranularity = 8; // round capacities to 8 scalars

std::atomic<bool> g_enabled{true};

std::size_t max_cached_bytes() {
  static const std::size_t limit = [] {
    // Once-guarded read; nothing calls setenv.
    const long mb = common::env_int("AVGPIPE_ARENA_MAX_MB", 256);
    return mb >= 0 ? static_cast<std::size_t>(mb) << 20
                   : std::size_t{256} << 20;
  }();
  return limit;
}

struct Home;

/// The 64 bytes in front of every buffer. `home` and `capacity` are written
/// once by the allocating thread; `next` links the buffer into exactly one
/// free list or remote stack while nobody holds it.
struct alignas(kAlignment) Header {
  Home* home;            ///< allocating thread's cache; null if it had none
  std::size_t capacity;  ///< bucket capacity in scalars
  Header* next;
};
static_assert(sizeof(Header) == kAlignment, "header must keep data aligned");

Scalar* data_of(Header* h) { return reinterpret_cast<Scalar*>(h + 1); }
Header* header_of(Scalar* p) { return reinterpret_cast<Header*>(p) - 1; }
std::size_t bytes_of(std::size_t capacity) { return capacity * sizeof(Scalar); }

/// Stats as relaxed atomics. A home's counters are written only by the
/// thread that owns the home (a plain load + store, no locked read-modify-
/// write on a shared line) and read by stats() from any thread.
struct Counters {
  std::atomic<std::uint64_t> acquires{0}, hits{0}, heap_allocs{0},
      releases{0}, heap_frees{0};

  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void add_to(Stats& s) const {
    s.acquires += acquires.load(std::memory_order_relaxed);
    s.hits += hits.load(std::memory_order_relaxed);
    s.heap_allocs += heap_allocs.load(std::memory_order_relaxed);
    s.releases += releases.load(std::memory_order_relaxed);
    s.heap_frees += heap_frees.load(std::memory_order_relaxed);
  }
};

Stats operator-(const Stats& a, const Stats& b) {
  return {a.acquires - b.acquires, a.hits - b.hits,
          a.heap_allocs - b.heap_allocs, a.releases - b.releases,
          a.heap_frees - b.heap_frees};
}

/// Counts of acquires/releases made by a thread with no home (during its
/// teardown or static destruction). Rare, so shared atomics (fetch_add from
/// any thread) are fine here.
Counters g_homeless;

Header* heap_acquire(Home* home, std::size_t capacity) {
  auto* h = static_cast<Header*>(::operator new(
      sizeof(Header) + bytes_of(capacity), std::align_val_t{kAlignment}));
  h->home = home;
  h->capacity = capacity;
  h->next = nullptr;
  return h;
}

void heap_free(Header* h) noexcept {
  ::operator delete(h, std::align_val_t{kAlignment});
}

/// One thread's buffer cache. The owning thread alone touches the free lists
/// and writes the counters; any thread may push onto `remote`. A home
/// outlives its thread: on exit it is parked for the next new thread to
/// adopt, and it is never deleted, so a late release into it is always safe.
struct Home {
  std::unordered_map<std::size_t, Header*> free_lists;  // owner only
  std::size_t cached_bytes = 0;                         // owner only
  Counters counters;                                    // owner writes
  /// Buffers of this home released on other threads: a Treiber stack that
  /// others push with a CAS and the owner takes whole with exchange(nullptr).
  /// There are no single pops, so there is no ABA problem.
  alignas(kAlignment) std::atomic<Header*> remote{nullptr};

  /// Owner: cache `h` under the cap, or free it.
  void keep(Header* h) {
    if (cached_bytes + bytes_of(h->capacity) <= max_cached_bytes()) {
      Header*& head = free_lists[h->capacity];
      h->next = head;
      head = h;
      cached_bytes += bytes_of(h->capacity);
    } else {
      Counters::bump(counters.heap_frees);
      heap_free(h);
    }
  }

  /// Owner: move every remotely released buffer onto the free lists.
  void drain() {
    Header* h = remote.exchange(nullptr, std::memory_order_acquire);
    while (h != nullptr) {
      Header* next = h->next;
      keep(h);
      h = next;
    }
  }

  /// Owner: a cached buffer of `capacity`, draining the remote stack on a
  /// miss; null when neither has one.
  Header* take(std::size_t capacity) {
    auto it = free_lists.find(capacity);
    if (it == free_lists.end() || it->second == nullptr) {
      if (remote.load(std::memory_order_relaxed) == nullptr) return nullptr;
      drain();
      it = free_lists.find(capacity);
      if (it == free_lists.end() || it->second == nullptr) return nullptr;
    }
    Header* h = it->second;
    it->second = h->next;
    cached_bytes -= bytes_of(capacity);
    return h;
  }

  /// Any thread: hand `h` back to this home.
  void push_remote(Header* h) noexcept {
    Header* head = remote.load(std::memory_order_relaxed);
    do {
      h->next = head;
    } while (!remote.compare_exchange_weak(head, h, std::memory_order_release,
                                           std::memory_order_relaxed));
  }

  /// Owner: free every cached buffer, remote ones included, to the heap.
  void clear() {
    drain();
    for (auto& [capacity, head] : free_lists) {
      (void)capacity;
      while (head != nullptr) {
        Header* next = head->next;
        Counters::bump(counters.heap_frees);
        heap_free(head);
        head = next;
      }
    }
    cached_bytes = 0;
  }
};

/// Every home ever made, and the parked ones of exited threads. Never
/// destroyed, so releases during static destruction still find their home.
struct Registry {
  common::Mutex mu;
  std::vector<Home*> homes GUARDED_BY(mu);
  std::vector<Home*> abandoned GUARDED_BY(mu);
  Stats baseline GUARDED_BY(mu);  ///< totals at the last reset_stats()

  Stats totals() REQUIRES(mu) {
    Stats s;
    for (const Home* h : homes) h->counters.add_to(s);
    g_homeless.add_to(s);
    return s;
  }
};

Registry& registry() {
  static Registry* const r = new Registry;
  return *r;
}

/// The calling thread's home; null once its thread_local owner is gone, so
/// acquire/release during thread teardown or static destruction bypass the
/// cache instead of touching a parked home as its owner.
thread_local Home* tl_home = nullptr;
/// The home's counters when this thread adopted it or last reset_stats().
thread_local Stats tl_baseline;

Stats own_counters(const Home* h) {
  Stats s;
  h->counters.add_to(s);
  return s;
}

struct HomeOwner {
  HomeOwner() {
    Registry& r = registry();
    Home* h = nullptr;
    {
      common::MutexLock lock(r.mu);
      if (!r.abandoned.empty()) {
        h = r.abandoned.back();
        r.abandoned.pop_back();
      } else {
        h = new Home;
        r.homes.push_back(h);
      }
    }
    tl_home = h;
    tl_baseline = own_counters(h);
  }
  ~HomeOwner() {
    Home* h = tl_home;
    tl_home = nullptr;
    h->clear();
    Registry& r = registry();
    common::MutexLock lock(r.mu);
    r.abandoned.push_back(h);
  }
};

Home* home() {
  thread_local HomeOwner owner;
  return tl_home;
}

/// Count one event of the calling thread, whose home is `me` (or null).
void count(Home* me, std::atomic<std::uint64_t> Counters::*event) {
  if (me != nullptr) {
    Counters::bump(me->counters.*event);
  } else {
    (g_homeless.*event).fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

std::size_t bucket_capacity(std::size_t n) {
  return (n + kGranularity - 1) / kGranularity * kGranularity;
}

Scalar* acquire(std::size_t n) {
  if (n == 0) return nullptr;
  const std::size_t capacity = bucket_capacity(n);
  Home* h = home();
  count(h, &Counters::acquires);
  if (h != nullptr && g_enabled.load(std::memory_order_relaxed)) {
    if (Header* hit = h->take(capacity)) {
      count(h, &Counters::hits);
      return data_of(hit);
    }
  }
  count(h, &Counters::heap_allocs);
  return data_of(heap_acquire(h, capacity));
}

void release(Scalar* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  Header* hdr = header_of(p);
  assert(hdr->capacity == bucket_capacity(n));
  (void)n;
  Home* me = tl_home;  // never (re)construct during teardown
  count(me, &Counters::releases);
  if (g_enabled.load(std::memory_order_relaxed) && hdr->home != nullptr) {
    if (hdr->home == me) {
      me->keep(hdr);
    } else {
      hdr->home->push_remote(hdr);
    }
    return;
  }
  count(me, &Counters::heap_frees);
  heap_free(hdr);
}

Stats stats() {
  Registry& r = registry();
  common::MutexLock lock(r.mu);
  return r.totals() - r.baseline;
}

Stats thread_stats() {
  const Home* h = home();
  return h != nullptr ? own_counters(h) - tl_baseline : Stats{};
}

void reset_stats() {
  {
    Registry& r = registry();
    common::MutexLock lock(r.mu);
    r.baseline = r.totals();
  }
  if (const Home* h = home()) tl_baseline = own_counters(h);
}

void clear_thread_cache() {
  if (Home* h = home()) h->clear();
}

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace avgpipe::tensor::arena
