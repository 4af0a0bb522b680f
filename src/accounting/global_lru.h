// System-wide two-list LRU behind a single lru_lock (Linux / OSv lineage).
#ifndef MAGESIM_ACCOUNTING_GLOBAL_LRU_H_
#define MAGESIM_ACCOUNTING_GLOBAL_LRU_H_

#include "src/accounting/accounting.h"
#include "src/accounting/intrusive_list.h"
#include "src/analysis/guarded.h"

namespace magesim {

struct GlobalLruCosts {
  SimTime insert_cs_ns = 60;      // list insert under lru_lock
  SimTime scan_per_page_ns = 90;  // isolate/check/rotate one page
};

class GlobalLru : public PageAccounting {
 public:
  using Costs = GlobalLruCosts;

  explicit GlobalLru(PageTable& pt, Costs costs = Costs());

  InsertPlan PlanInsert(CoreId core, const PageFrame* f) override;
  void CommitInsert(CoreId core, PageFrame* f, SimTime start) override;
  void InsertSetup(CoreId core, PageFrame* f) override;
  Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                            std::vector<PageFrame*>* out) override;
  void Unlink(PageFrame* f) override;

  uint64_t tracked_pages() const override {
    // Unsafe(): size() is a plain counter read; a stale value only skews a
    // report sampled mid-scan, never control flow.
    return inactive_.Unsafe().size() + active_.Unsafe().size();
  }
  LockStats AggregateLockStats() const override { return lock_.stats(); }

  // Unsafe(): read-only reporting that tolerates observing a scan mid-update.
  size_t inactive_size() const { return inactive_.Unsafe().size(); }
  size_t active_size() const { return active_.Unsafe().size(); }  // see above

 private:
  void Balance();

  PageTable& pt_;
  Costs costs_;
  SimMutex lock_{"lru"};
  GuardedBy<FrameList> inactive_{lock_};  // lru_list id 0
  GuardedBy<FrameList> active_{lock_};    // lru_list id 1
};

}  // namespace magesim

#endif  // MAGESIM_ACCOUNTING_GLOBAL_LRU_H_
