// Multi-generational LRU page accounting (Linux's MGLRU, cited by the paper
// as the modern Linux eviction mechanism [2]). Pages live in one of
// kGenerations generation FIFOs; eviction scans the oldest generation and
// promotes referenced pages to the youngest ("aging" walks are folded into
// the scan). A single lru_lock still serializes generation movement, which is
// the contention MAGE's partitioning removes.
#ifndef MAGESIM_ACCOUNTING_MGLRU_H_
#define MAGESIM_ACCOUNTING_MGLRU_H_

#include <array>

#include "src/accounting/accounting.h"
#include "src/accounting/intrusive_list.h"

namespace magesim {

struct MgLruCosts {
  SimTime insert_cs_ns = 60;
  SimTime scan_per_page_ns = 85;  // gen check + movement (cheaper than rmap walks)
};

class MgLru : public PageAccounting {
 public:
  using Costs = MgLruCosts;
  static constexpr int kGenerations = 4;

  explicit MgLru(PageTable& pt, Costs costs = Costs());

  InsertPlan PlanInsert(CoreId core, const PageFrame* f) override;
  void CommitInsert(CoreId core, PageFrame* f, SimTime start) override;
  void InsertSetup(CoreId core, PageFrame* f) override;
  Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                            std::vector<PageFrame*>* out) override;
  void Unlink(PageFrame* f) override;

  uint64_t tracked_pages() const override;
  LockStats AggregateLockStats() const override { return lock_.stats(); }

  size_t GenerationSize(int g) const {
    return gens_[static_cast<size_t>((min_gen_ + g) % kGenerations)].size();
  }
  uint64_t agings() const { return agings_; }

 private:
  FrameList& Oldest() { return gens_[static_cast<size_t>(min_gen_)]; }
  FrameList& Youngest() {
    return gens_[static_cast<size_t>((min_gen_ + kGenerations - 1) % kGenerations)];
  }
  int16_t YoungestId() const {
    return static_cast<int16_t>((min_gen_ + kGenerations - 1) % kGenerations);
  }
  void AgeIfOldestEmpty();

  PageTable& pt_;
  Costs costs_;
  std::array<FrameList, kGenerations> gens_;  // lru_list = generation index
  int min_gen_ = 0;  // index of the oldest generation
  uint64_t agings_ = 0;
  SimMutex lock_{"mglru"};
};

}  // namespace magesim

#endif  // MAGESIM_ACCOUNTING_MGLRU_H_
