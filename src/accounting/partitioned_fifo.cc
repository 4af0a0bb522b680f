#include "src/accounting/partitioned_fifo.h"

#include <algorithm>
#include <cassert>

#include "src/analysis/guarded.h"
#include "src/sim/prof_counters.h"
#include "src/sim/engine.h"

namespace magesim {

PartitionedFifo::PartitionedFifo(PageTable& pt, int num_partitions, int num_evictors,
                                 Costs costs)
    : pt_(pt), costs_(costs) {
  assert(num_partitions > 0 && num_evictors > 0);
  lists_.resize(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    locks_.push_back(std::make_unique<SimMutex>("fifo-part"));
  }
  // Each evictor starts scanning at a different list index to balance load
  // (§4.2.2 "Removing pages from LRU lists").
  rr_cursor_.resize(static_cast<size_t>(num_evictors));
  for (int e = 0; e < num_evictors; ++e) {
    rr_cursor_[static_cast<size_t>(e)] =
        static_cast<size_t>(e) * static_cast<size_t>(num_partitions) /
        static_cast<size_t>(num_evictors);
  }
}

PageAccounting::InsertPlan PartitionedFifo::PlanInsert(CoreId core, const PageFrame* f) {
  return InsertPlan{locks_[PartitionFor(core)].get(), costs_.insert_cs_ns};
}

void PartitionedFifo::CommitInsert(CoreId core, PageFrame* f, SimTime start) {
  size_t p = PartitionFor(core);
  MAGESIM_ASSERT_HELD(*locks_[p], "fifo partition (insert)");
  lists_[p].PushBack(f);
  f->lru_list = static_cast<int16_t>(p);
  CountInsert(start);
}

void PartitionedFifo::InsertSetup(CoreId core, PageFrame* f) {
  size_t p = PartitionFor(core);
  lists_[p].PushBack(f);
  f->lru_list = static_cast<int16_t>(p);
  ++stats_.inserts;
}

Task<size_t> PartitionedFifo::IsolateBatch(int evictor_id, CoreId core, size_t want,
                                           std::vector<PageFrame*>* out) {
  size_t got = 0;
  size_t& cursor = rr_cursor_[static_cast<size_t>(evictor_id)];
  size_t lists_tried = 0;
  while (got < want && lists_tried < lists_.size()) {
    size_t p = cursor;
    cursor = (cursor + 1) % lists_.size();
    ++lists_tried;
    if (lists_[p].empty()) continue;
    auto g = co_await locks_[p]->Scoped();
    MAGESIM_ASSERT_HELD(*locks_[p], "fifo partition (isolate scan)");
    // Never re-examine pages this scan itself rotated back: bound the scan
    // by the list length at entry.
    size_t scan_budget = std::min((want - got) * 4, lists_[p].size());
    while (got < want && scan_budget > 0 && !lists_[p].empty()) {
      co_await Delay{costs_.scan_per_page_ns};
      --scan_budget;
      ++stats_.scanned;
      PageFrame* f = lists_[p].PopFront();
      bool accessed = f->vpn != kInvalidVpn && pt_.At(f->vpn).accessed;
      if (accessed) {
        pt_.At(f->vpn).accessed = false;
        if (f->referenced) {
          // Referenced on two consecutive scans: genuinely hot, requeue.
          ++stats_.reactivated;
        } else {
          // Use-once filter: remember the reference for the next scan.
          f->referenced = true;
        }
        lists_[p].PushBack(f);
        continue;
      }
      if (f->referenced) {
        // Cooled down since the last scan: one more round before eviction.
        f->referenced = false;
        lists_[p].PushBack(f);
        continue;
      }
      f->lru_list = -1;
      f->state = PageFrame::State::kIsolated;
      out->push_back(f);
      ++got;
      ++stats_.isolated;
    }
  }
  co_return got;
}

void PartitionedFifo::Unlink(PageFrame* f) {
  MAGESIM_PROF_SCOPE(fifo_unlink);
  if (!f->linked()) return;
  lists_[static_cast<size_t>(f->lru_list)].Remove(f);
  f->lru_list = -1;
}

uint64_t PartitionedFifo::tracked_pages() const {
  uint64_t n = 0;
  for (const auto& l : lists_) n += l.size();
  return n;
}

LockStats PartitionedFifo::AggregateLockStats() const {
  LockStats agg;
  for (const auto& l : locks_) {
    agg.acquisitions += l->stats().acquisitions;
    agg.contended += l->stats().contended;
    agg.total_wait_ns += l->stats().total_wait_ns;
    agg.max_wait_ns = std::max(agg.max_wait_ns, l->stats().max_wait_ns);
  }
  return agg;
}

}  // namespace magesim
