// Slab allocator for the simulation hot path (SpeedMalloc's thesis applied
// to the simulator itself: allocation does not belong on the critical path).
//
// The DES engine allocates roughly one coroutine frame per simulated fault
// step — millions of short-lived, similarly-sized blocks per run — and glibc
// malloc was ~40% of wall time on the fig05 sweep. This allocator serves
// those blocks from per-size-class free lists carved out of large arena
// chunks: an allocation is a free-list pop, a free is a push, and chunks are
// never returned to the OS (the simulator is a batch process; peak footprint
// is the steady state anyway).
//
// Every block carries a 16-byte header recording which size class (or the
// heap fallback) it came from, so Deallocate routes correctly even if the
// enabled flag is flipped between an allocation and its free — which is
// exactly what the allocator-equivalence tests do.
//
// Determinism: the allocator affects only *where* frames live, never the
// order in which events run; golden traces are byte-identical with it on or
// off (tests/trace/allocator_equivalence_test.cc pins this).
//
// Toggle: MAGESIM_SLAB_DEFAULT_OFF compiles the allocator default-off (pass
// through to operator new); the sanitizer presets set it so ASan keeps
// seeing every coroutine-frame free (a recycling slab would otherwise hide
// use-after-free of parked frames).
//
// Single-threaded by design, like the Engine it serves.
#ifndef MAGESIM_SIM_SLAB_ALLOC_H_
#define MAGESIM_SIM_SLAB_ALLOC_H_

#include <cstddef>
#include <cstdint>

namespace magesim {

struct SlabStats {
  uint64_t allocs = 0;          // total Allocate() calls
  uint64_t frees = 0;           // total Deallocate() calls
  uint64_t freelist_hits = 0;   // allocations served by recycling a block
  uint64_t heap_allocs = 0;     // oversize or disabled: ::operator new
  uint64_t chunks = 0;          // arena chunks carved
  uint64_t chunk_bytes = 0;     // bytes reserved in arena chunks
};

class SlabAllocator {
 public:
  // Largest block (including header) served from slabs; bigger requests fall
  // through to ::operator new (with a header, so Deallocate still routes).
  static constexpr size_t kMaxSlabBytes = 4096;
  static constexpr size_t kGranularity = 64;  // size-class width and alignment
  static constexpr size_t kNumClasses = kMaxSlabBytes / kGranularity;
  static constexpr size_t kChunkBytes = 256 * 1024;

  static void* Allocate(size_t n);
  static void Deallocate(void* p);

  // Whether *new* allocations are served from slabs. Starts on unless built
  // with MAGESIM_SLAB_DEFAULT_OFF.
  static bool enabled();
  // Test hook: reroutes future allocations; outstanding blocks are still
  // freed to wherever they came from (the header remembers).
  static void set_enabled(bool on);

  static const SlabStats& stats();
  static void ResetStats();
};

// Minimal std-allocator shim over SlabAllocator, for containers/handles on
// the hot path that would otherwise hit ::operator new per element —
// e.g. std::allocate_shared puts an RdmaCompletion plus its control block in
// one recyclable slab block.
template <typename T>
struct SlabStdAllocator {
  using value_type = T;
  SlabStdAllocator() = default;
  template <typename U>
  SlabStdAllocator(const SlabStdAllocator<U>&) {}  // NOLINT(runtime/explicit)
  T* allocate(size_t n) { return static_cast<T*>(SlabAllocator::Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t) { SlabAllocator::Deallocate(p); }
  template <typename U>
  bool operator==(const SlabStdAllocator<U>&) const {
    return true;
  }
};

}  // namespace magesim

#endif  // MAGESIM_SIM_SLAB_ALLOC_H_
