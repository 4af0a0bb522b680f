// Page-replacement accounting interface (FP3 + EP1 of §2.1).
//
// Both implementations run second-chance selection over PTE accessed bits
// (the coarse-grained hotness signal page tables give the OS, §4.2.2):
//  * GlobalLru        — Linux/DiLOS-style system-wide active/inactive lists
//                       behind one lru_lock; every fault-in insert and every
//                       eviction scan serializes here (Challenge 2).
//  * PartitionedFifo  — MAGE: per-evictor independent FIFO lists, insertion
//                       hashed by CPU id, round-robin scanning; trades global
//                       recency accuracy for near-zero contention.
#ifndef MAGESIM_ACCOUNTING_ACCOUNTING_H_
#define MAGESIM_ACCOUNTING_ACCOUNTING_H_

#include <cstdint>
#include <vector>

#include "src/hw/topology.h"
#include "src/mem/frame_pool.h"
#include "src/mem/page_table.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace magesim {

struct AccountingStats {
  uint64_t inserts = 0;
  uint64_t scanned = 0;
  uint64_t reactivated = 0;
  uint64_t isolated = 0;
};

class PageAccounting {
 public:
  virtual ~PageAccounting() = default;

  // FP3: registers a freshly faulted-in (or reactivated) page. Every policy
  // shares one shape — take the insert lock, spend `cs_ns` under it, commit
  // — so Insert() is exactly this composition of the pieces below, which
  // the fault path runs inline in its own coroutine frame
  // (docs/INTERNALS.md §1, "Frame discipline"):
  //
  //   SimTime start = now;
  //   InsertPlan p = PlanInsert(core, f);
  //   auto g = co_await p.lock->Scoped();
  //   co_await Delay{p.cs_ns};
  //   CommitInsert(core, f, start);
  Task<> Insert(CoreId core, PageFrame* f);

  struct InsertPlan {
    SimMutex* lock;  // the list lock the insert takes (partition or global)
    SimTime cs_ns;   // the critical section's cost
  };
  virtual InsertPlan PlanInsert(CoreId core, const PageFrame* f) = 0;
  // Links `f` under the plan's lock, held by the caller, and counts an
  // insert begun at `start`.
  virtual void CommitInsert(CoreId core, PageFrame* f, SimTime start) = 0;

  // Setup-time registration with zero simulated cost (machine prepopulation).
  virtual void InsertSetup(CoreId core, PageFrame* f) = 0;

  // EP1: selects up to `want` eviction victims for `evictor_id`, applying
  // second chance (accessed pages are re-queued with the bit cleared).
  // Victims are unlinked from accounting; caller owns them afterwards.
  virtual Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                                    std::vector<PageFrame*>* out) = 0;

  // Removes a specific page from accounting if it is linked (used when a
  // fault races with eviction bookkeeping). Cheap, lock-held by caller-side
  // cost model.
  virtual void Unlink(PageFrame* f) = 0;

  virtual uint64_t tracked_pages() const = 0;
  virtual LockStats AggregateLockStats() const = 0;
  const AccountingStats& stats() const { return stats_; }

  // Cumulative simulated time spent in Insert (the FP3 component of the
  // fault-latency breakdown).
  SimTime insert_time_total() const { return insert_time_total_; }

 protected:
  void CountInsert(SimTime start) {
    ++stats_.inserts;
    insert_time_total_ += Engine::current().now() - start;
  }

  AccountingStats stats_;
  SimTime insert_time_total_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_ACCOUNTING_ACCOUNTING_H_
