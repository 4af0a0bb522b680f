// Local physical-page allocation strategies (§3.3.3, §4.2.3).
//
// PageAllocator is the interface the paging paths use to circulate frames
// between free and used states. The three concrete strategies model the
// systems compared in the paper:
//  * PcpAllocator        — Linux: per-CPU page caches over a global buddy lock
//                          (Hermit, MageLnx's starting point).
//  * GlobalMutexAllocator— DiLOS: every alloc/free takes one global sleepable
//                          mutex on the physical allocator (§3.2).
//  * MultilayerAllocator — MAGE: per-core cache -> shared concurrent queue ->
//                          buddy fallback (§5.2), with different strategies
//                          for application vs. eviction threads.
#ifndef MAGESIM_MEM_PAGE_ALLOCATOR_H_
#define MAGESIM_MEM_PAGE_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/hw/topology.h"
#include "src/mem/buddy_allocator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace magesim {

struct AllocatorCosts {
  SimTime buddy_cs_base_ns = 250;      // global buddy lock critical section
  SimTime buddy_cs_per_work_ns = 40;   // per split/merge/list operation
  SimTime pcp_hit_ns = 25;             // lockless per-CPU cache hit
  SimTime pcp_move_per_page_ns = 30;   // moving one page cache<->buddy
  SimTime shared_queue_cs_ns = 70;     // MAGE concurrent-queue batch op
  SimTime global_mutex_cs_ns = 280;    // DiLOS per-op mutex hold time
};

class PageAllocator {
 public:
  virtual ~PageAllocator() = default;

  // One allocation's fast path, described for the caller to run: an
  // optional lock held across a `cost` delay, then CommitFast().
  struct AllocAttempt {
    SimTime start = 0;         // when the allocation began (what it is charged from)
    bool fast = false;         // a fast path applies (e.g. the core cache is non-empty)
    SimMutex* lock = nullptr;  // held across the fast path's delay, if any
    SimTime cost = 0;          // the fast path's delay
  };

  // Grabs one free frame for `core`, or nullptr if none is available anywhere.
  // May suspend on allocator locks. It is exactly this composition of the
  // pieces below, which the fault path runs inline in its own coroutine
  // frame (docs/INTERNALS.md §1, "Frame discipline"):
  //
  //   AllocAttempt a = BeginAlloc(core);
  //   if (a.fast) {
  //     auto g = co_await SimMutex::ScopedIf(a.lock);
  //     co_await Delay{a.cost};
  //     if (CommitFast(core, a, &f)) -> done, f (null: exhausted)
  //   }
  //   f = co_await AllocSlow(core, a.start);
  Task<PageFrame*> Alloc(CoreId core);

  // Starts an allocation at the current time.
  virtual AllocAttempt BeginAlloc(CoreId core) = 0;
  // Finishes the fast path after its delay, under its lock. Returns true
  // when the allocation is complete (`*out` is the frame, or null when the
  // allocator is exhausted) and false when AllocSlow() must finish it.
  virtual bool CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) = 0;
  // The slow path — refill and fallbacks — of an allocation begun at
  // `start`; it pays no fast-path delay. An allocator whose fast path
  // always completes never reaches this default.
  virtual Task<PageFrame*> AllocSlow(CoreId core, SimTime start);

  // Returns one frame.
  virtual Task<> Free(CoreId core, PageFrame* f) = 0;

  // Returns a batch of frames (the eviction path reclaims whole batches).
  virtual Task<> FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) = 0;

  // Globally visible free pages (what watermark logic sees). Per-core caches
  // are intentionally excluded, as in Linux.
  virtual uint64_t global_free_pages() const = 0;

  // Contention on the allocator's shared lock(s).
  virtual const LockStats& lock_stats() const = 0;

  // Appends every frame currently parked in this allocator's caches/queues
  // (i.e. free-for-reuse but invisible to the buddy allocator). Used by the
  // invariant checker's frame-ownership census; zero simulated cost.
  virtual void AppendCached(std::vector<PageFrame*>* out) const {}

  // Cumulative simulated time spent inside Alloc() across all callers
  // (the "mem circulation" component of the fault-latency breakdowns).
  SimTime alloc_time_total() const { return alloc_time_total_; }
  uint64_t allocs() const { return allocs_; }

 protected:
  void ChargeAlloc(SimTime t) {
    alloc_time_total_ += t;
    ++allocs_;
  }

 private:
  SimTime alloc_time_total_ = 0;
  uint64_t allocs_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_MEM_PAGE_ALLOCATOR_H_
