#include "src/accounting/mglru.h"

#include <algorithm>

#include "src/analysis/guarded.h"
#include "src/sim/engine.h"

namespace magesim {

MgLru::MgLru(PageTable& pt, Costs costs) : pt_(pt), costs_(costs) {}

PageAccounting::InsertPlan MgLru::PlanInsert(CoreId core, const PageFrame* f) {
  return InsertPlan{&lock_, costs_.insert_cs_ns};
}

void MgLru::CommitInsert(CoreId core, PageFrame* f, SimTime start) {
  MAGESIM_ASSERT_HELD(lock_, "mglru generations (insert)");
  Youngest().PushBack(f);
  f->lru_list = YoungestId();
  CountInsert(start);
}

void MgLru::InsertSetup(CoreId core, PageFrame* f) {
  // Setup-time pages enter the *oldest* generation: they have no history yet
  // and should be reclaim candidates until referenced.
  Oldest().PushBack(f);
  f->lru_list = static_cast<int16_t>(min_gen_);
  ++stats_.inserts;
}

void MgLru::AgeIfOldestEmpty() {
  // Advancing min_gen makes the next generation the eviction target and
  // frees the old slot to become the new youngest.
  int guard = 0;
  while (Oldest().empty() && guard < kGenerations && tracked_pages() > 0) {
    min_gen_ = (min_gen_ + 1) % kGenerations;
    ++agings_;
    ++guard;
  }
}

Task<size_t> MgLru::IsolateBatch(int evictor_id, CoreId core, size_t want,
                                 std::vector<PageFrame*>* out) {
  auto g = co_await lock_.Scoped();
  MAGESIM_ASSERT_HELD(lock_, "mglru generations (isolate scan)");
  size_t got = 0;
  AgeIfOldestEmpty();
  size_t budget = std::min(want * 4, tracked_pages());
  while (got < want && budget > 0 && tracked_pages() > 0) {
    AgeIfOldestEmpty();
    if (Oldest().empty()) break;
    co_await Delay{costs_.scan_per_page_ns};
    --budget;
    ++stats_.scanned;
    PageFrame* f = Oldest().PopFront();
    bool accessed = f->vpn != kInvalidVpn && pt_.At(f->vpn).accessed;
    if (accessed) {
      // Referenced since it aged into the oldest generation: promote to the
      // youngest generation (the MGLRU aging walk outcome).
      pt_.At(f->vpn).accessed = false;
      Youngest().PushBack(f);
      f->lru_list = YoungestId();
      ++stats_.reactivated;
      continue;
    }
    f->lru_list = -1;
    f->state = PageFrame::State::kIsolated;
    out->push_back(f);
    ++got;
    ++stats_.isolated;
  }
  co_return got;
}

void MgLru::Unlink(PageFrame* f) {
  if (!f->linked()) return;
  gens_[static_cast<size_t>(f->lru_list)].Remove(f);
  f->lru_list = -1;
}

uint64_t MgLru::tracked_pages() const {
  uint64_t n = 0;
  for (const auto& g : gens_) n += g.size();
  return n;
}

}  // namespace magesim
