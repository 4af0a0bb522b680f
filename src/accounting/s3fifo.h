// S3-FIFO page accounting (Yang et al., SOSP '23 — cited by the paper in
// §4.2.2 as a lower-contention alternative to LRU that nevertheless "requires
// fine-grained access frequency tracking that is incompatible with existing
// OS page table mechanisms"). This adaptation approximates object frequencies
// with the coarse PTE accessed bit sampled at scan time:
//   * Small queue (10% of tracked pages): new pages enter here. On scan,
//     referenced pages promote to Main; unreferenced ones evict, leaving a
//     ghost entry.
//   * Main queue: referenced pages are reinserted with decremented frequency
//     ("lazy promotion"); unreferenced ones evict.
//   * Ghost FIFO (metadata only): a refault whose vpn is still in the ghost
//     inserts directly into Main ("quick demotion" escape hatch).
// One lock protects all three structures — the contention profile the paper
// contrasts against its partitioned design.
#ifndef MAGESIM_ACCOUNTING_S3FIFO_H_
#define MAGESIM_ACCOUNTING_S3FIFO_H_

#include "src/accounting/accounting.h"
#include "src/accounting/intrusive_list.h"
#include "src/accounting/vpn_set.h"
#include "src/sim/ring_queue.h"

namespace magesim {

struct S3FifoCosts {
  SimTime insert_cs_ns = 70;      // ghost lookup + queue insert
  SimTime scan_per_page_ns = 95;  // freq check + queue movement
};

class S3Fifo : public PageAccounting {
 public:
  using Costs = S3FifoCosts;

  explicit S3Fifo(PageTable& pt, Costs costs = Costs());

  InsertPlan PlanInsert(CoreId core, const PageFrame* f) override;
  void CommitInsert(CoreId core, PageFrame* f, SimTime start) override;
  void InsertSetup(CoreId core, PageFrame* f) override;
  Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                            std::vector<PageFrame*>* out) override;
  void Unlink(PageFrame* f) override;

  uint64_t tracked_pages() const override { return small_.size() + main_.size(); }
  LockStats AggregateLockStats() const override { return lock_.stats(); }

  size_t small_size() const { return small_.size(); }
  size_t main_size() const { return main_.size(); }
  size_t ghost_size() const { return ghost_fifo_.size(); }
  uint64_t ghost_hits() const { return ghost_hits_; }

 private:
  // Small queue target: 10% of tracked pages (the S3-FIFO default).
  bool SmallOverTarget() const { return small_.size() * 10 > tracked_pages(); }
  void GhostInsert(uint64_t vpn);
  bool GhostErase(uint64_t vpn);
  void PlaceNew(PageFrame* f);

  PageTable& pt_;
  Costs costs_;
  FrameList small_;  // lru_list id 0
  FrameList main_;   // lru_list id 1
  // Ghost metadata: allocation-free ring + open-addressing set (the
  // unordered_set/deque pair they replace allocated a node per evicted vpn).
  RingQueue<uint64_t> ghost_fifo_;
  VpnSet ghost_set_;
  size_t ghost_capacity_ = 0;  // tracks main_ capacity dynamically
  uint64_t ghost_hits_ = 0;
  SimMutex lock_{"s3fifo"};
};

}  // namespace magesim

#endif  // MAGESIM_ACCOUNTING_S3FIFO_H_
