// MAGE's partitioned page accounting (§4.2.2): one independent FIFO list per
// partition, each with its own lock. Fault-in inserts hash by the faulting
// CPU id; evictor threads scan round-robin starting at distinct indices.
// Deliberately trades global recency accuracy for scalability (P3).
#ifndef MAGESIM_ACCOUNTING_PARTITIONED_FIFO_H_
#define MAGESIM_ACCOUNTING_PARTITIONED_FIFO_H_

#include <memory>

#include "src/accounting/accounting.h"
#include "src/accounting/intrusive_list.h"

namespace magesim {

struct PartitionedFifoCosts {
  SimTime insert_cs_ns = 40;
  SimTime scan_per_page_ns = 70;
};

class PartitionedFifo : public PageAccounting {
 public:
  using Costs = PartitionedFifoCosts;

  PartitionedFifo(PageTable& pt, int num_partitions, int num_evictors, Costs costs = Costs());

  InsertPlan PlanInsert(CoreId core, const PageFrame* f) override;
  void CommitInsert(CoreId core, PageFrame* f, SimTime start) override;
  void InsertSetup(CoreId core, PageFrame* f) override;
  Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                            std::vector<PageFrame*>* out) override;
  void Unlink(PageFrame* f) override;

  uint64_t tracked_pages() const override;
  LockStats AggregateLockStats() const override;

  int num_partitions() const { return static_cast<int>(lists_.size()); }
  size_t PartitionSize(int i) const { return lists_[static_cast<size_t>(i)].size(); }

 private:
  size_t PartitionFor(CoreId core) const {
    // Hash of the current CPU id modulo the number of lists (§4.2.2).
    uint64_t h = static_cast<uint64_t>(core) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>((h >> 32) % lists_.size());
  }

  PageTable& pt_;
  Costs costs_;
  std::vector<FrameList> lists_;
  std::vector<std::unique_ptr<SimMutex>> locks_;
  std::vector<size_t> rr_cursor_;  // per-evictor round-robin scan position
};

}  // namespace magesim

#endif  // MAGESIM_ACCOUNTING_PARTITIONED_FIFO_H_
