// Linux-style per-CPU page caches (PcpAllocator) and the DiLOS-style global
// mutex allocator (GlobalMutexAllocator). See page_allocator.h.
#ifndef MAGESIM_MEM_PERCPU_CACHE_H_
#define MAGESIM_MEM_PERCPU_CACHE_H_

#include <vector>

#include "src/mem/page_allocator.h"

namespace magesim {

// Linux: a small lockless cache per CPU, refilled from / drained to the
// buddy allocator under its global lock. Works well at low fault rates; under
// swap-intensive load every refill/drain serializes on the buddy lock.
class PcpAllocator : public PageAllocator {
 public:
  PcpAllocator(BuddyAllocator& buddy, int num_cores, AllocatorCosts costs = {},
               int batch = 32, int high_watermark = 64);

  // Fast path: a lockless per-CPU cache hit. Slow path: a batch refill
  // from the buddy allocator under its lock.
  AllocAttempt BeginAlloc(CoreId core) override;
  bool CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) override;
  Task<PageFrame*> AllocSlow(CoreId core, SimTime start) override;
  Task<> Free(CoreId core, PageFrame* f) override;
  Task<> FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) override;
  uint64_t global_free_pages() const override { return buddy_.free_pages(); }
  const LockStats& lock_stats() const override { return buddy_lock_.stats(); }
  void AppendCached(std::vector<PageFrame*>* out) const override;

  size_t CacheSize(CoreId core) const { return caches_[static_cast<size_t>(core)].size(); }

 private:
  BuddyAllocator& buddy_;
  SimMutex buddy_lock_{"buddy"};
  AllocatorCosts costs_;
  int batch_;
  int high_;
  std::vector<std::vector<PageFrame*>> caches_;
};

// DiLOS: one global sleepable mutex protects the physical allocator; every
// page alloc/free takes it (§3.2: "a global sleepable mutex protecting its
// physical page allocator").
class GlobalMutexAllocator : public PageAllocator {
 public:
  explicit GlobalMutexAllocator(BuddyAllocator& buddy, AllocatorCosts costs = {});

  // The whole allocation is the fast path: one lock, one delay, one commit.
  AllocAttempt BeginAlloc(CoreId core) override;
  bool CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) override;
  Task<> Free(CoreId core, PageFrame* f) override;
  Task<> FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) override;
  uint64_t global_free_pages() const override { return buddy_.free_pages(); }
  const LockStats& lock_stats() const override { return mutex_.stats(); }

 private:
  BuddyAllocator& buddy_;
  SimMutex mutex_{"phys-alloc"};
  AllocatorCosts costs_;
};

}  // namespace magesim

#endif  // MAGESIM_MEM_PERCPU_CACHE_H_
