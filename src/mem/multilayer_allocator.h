// MAGE's three-level physical page allocator (§5.2):
//   1. per-core free-page caches for immediate, contention-free access;
//   2. a shared concurrent queue for batch transfers between cores;
//   3. the global buddy allocator as a fallback.
// Application threads (fault path) pull from their core cache and refill from
// the shared queue; eviction threads (reclaim path) push whole reclaimed
// batches straight into the shared queue, replenishing the fault path without
// ever touching the buddy lock in steady state.
#ifndef MAGESIM_MEM_MULTILAYER_ALLOCATOR_H_
#define MAGESIM_MEM_MULTILAYER_ALLOCATOR_H_

#include <deque>
#include <vector>

#include "src/mem/page_allocator.h"

namespace magesim {

class MultilayerAllocator : public PageAllocator {
 public:
  MultilayerAllocator(BuddyAllocator& buddy, int num_cores, AllocatorCosts costs = {},
                      int core_cache_batch = 32, int core_cache_high = 64);

  // Fast path: a per-core cache hit. Slow path: a batch refill from the
  // shared queue, then the buddy fallback.
  AllocAttempt BeginAlloc(CoreId core) override;
  bool CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) override;
  Task<PageFrame*> AllocSlow(CoreId core, SimTime start) override;
  Task<> Free(CoreId core, PageFrame* f) override;
  // Eviction-thread strategy: batch-push to the shared queue (one short
  // critical section per batch, not per page).
  Task<> FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) override;

  uint64_t global_free_pages() const override {
    return buddy_.free_pages() + shared_queue_.size();
  }
  const LockStats& lock_stats() const override { return queue_lock_.stats(); }
  const LockStats& buddy_lock_stats() const { return buddy_lock_.stats(); }
  void AppendCached(std::vector<PageFrame*>* out) const override;

  size_t shared_queue_size() const { return shared_queue_.size(); }
  size_t CoreCacheSize(CoreId core) const { return caches_[static_cast<size_t>(core)].size(); }

 private:
  BuddyAllocator& buddy_;
  AllocatorCosts costs_;
  int batch_;
  int high_;
  std::vector<std::vector<PageFrame*>> caches_;
  std::deque<PageFrame*> shared_queue_;
  SimMutex queue_lock_{"shared-queue"};
  SimMutex buddy_lock_{"buddy"};
};

}  // namespace magesim

#endif  // MAGESIM_MEM_MULTILAYER_ALLOCATOR_H_
