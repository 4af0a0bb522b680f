#include "src/accounting/global_lru.h"

#include <algorithm>

#include "src/sim/engine.h"

namespace magesim {

namespace {
constexpr int16_t kInactive = 0;
constexpr int16_t kActive = 1;
}  // namespace

GlobalLru::GlobalLru(PageTable& pt, Costs costs) : pt_(pt), costs_(costs) {}

PageAccounting::InsertPlan GlobalLru::PlanInsert(CoreId core, const PageFrame* f) {
  return InsertPlan{&lock_, costs_.insert_cs_ns};
}

void GlobalLru::CommitInsert(CoreId core, PageFrame* f, SimTime start) {
  // magesim-lint: allow(guardedby-static): the caller holds lock_, the
  // insert lock PlanInsert returned.
  inactive_.Locked("lru insert").PushBack(f);
  f->lru_list = kInactive;
  CountInsert(start);
}

void GlobalLru::InsertSetup(CoreId core, PageFrame* f) {
  // Prepopulation runs before the engine spawns any task; Unsafe() skips the
  // (vacuous) held check.
  inactive_.Unsafe().PushBack(f);
  f->lru_list = kInactive;
  ++stats_.inserts;
}

void GlobalLru::Balance() {
  FrameList& inactive = inactive_.Locked("lru balance");
  FrameList& active = active_.Locked("lru balance");
  // Demote from the active list until it is no larger than the inactive list
  // (shrink_active_list analogue). Demotion clears the reference so demoted
  // pages must be re-referenced to survive the next scan.
  while (active.size() > inactive.size()) {
    PageFrame* f = active.PopFront();
    if (f->vpn != kInvalidVpn) {
      pt_.At(f->vpn).accessed = false;
    }
    inactive.PushBack(f);
    f->lru_list = kInactive;
  }
}

Task<size_t> GlobalLru::IsolateBatch(int evictor_id, CoreId core, size_t want,
                                     std::vector<PageFrame*>* out) {
  auto g = co_await lock_.Scoped();
  FrameList& inactive = inactive_.Locked("lru isolate scan");
  FrameList& active = active_.Locked("lru isolate scan");
  size_t got = 0;
  // Scan bound: examine at most 4x the request (and never pages this scan
  // itself reactivated), so a hot inactive list cannot wedge the evictor.
  size_t scan_budget = std::min(want * 4, inactive.size());
  while (got < want && scan_budget > 0 && !inactive.empty()) {
    co_await Delay{costs_.scan_per_page_ns};
    --scan_budget;
    ++stats_.scanned;
    PageFrame* f = inactive.PopFront();
    bool accessed = f->vpn != kInvalidVpn && pt_.At(f->vpn).accessed;
    if (accessed) {
      // Second chance: promote to the active list, clear the reference.
      pt_.At(f->vpn).accessed = false;
      active.PushBack(f);
      f->lru_list = kActive;
      ++stats_.reactivated;
      continue;
    }
    f->lru_list = -1;
    f->state = PageFrame::State::kIsolated;
    out->push_back(f);
    ++got;
    ++stats_.isolated;
  }
  if (got < want) {
    Balance();
    scan_budget = std::min(want * 4, inactive.size());
    while (got < want && scan_budget > 0 && !inactive.empty()) {
      co_await Delay{costs_.scan_per_page_ns};
      --scan_budget;
      ++stats_.scanned;
      PageFrame* f = inactive.PopFront();
      bool accessed = f->vpn != kInvalidVpn && pt_.At(f->vpn).accessed;
      if (accessed) {
        pt_.At(f->vpn).accessed = false;
        active.PushBack(f);
        f->lru_list = kActive;
        ++stats_.reactivated;
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

void GlobalLru::Unlink(PageFrame* f) {
  if (!f->linked()) return;
  FrameList& inactive = inactive_.Locked("lru unlink");
  FrameList& active = active_.Locked("lru unlink");
  if (f->lru_list == kInactive) {
    inactive.Remove(f);
  } else {
    active.Remove(f);
  }
  f->lru_list = -1;
}

}  // namespace magesim
