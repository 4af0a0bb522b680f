#include "src/accounting/s3fifo.h"

#include <algorithm>

#include "src/analysis/guarded.h"
#include "src/sim/engine.h"

namespace magesim {

namespace {
constexpr int16_t kSmall = 0;
constexpr int16_t kMain = 1;
constexpr uint8_t kMaxFreq = 3;
}  // namespace

S3Fifo::S3Fifo(PageTable& pt, Costs costs) : pt_(pt), costs_(costs) {}

void S3Fifo::GhostInsert(uint64_t vpn) {
  if (ghost_set_.insert(vpn)) {
    ghost_fifo_.push_back(vpn);
  }
  // Ghost capacity tracks the main queue size (S3-FIFO sizes it to Main).
  ghost_capacity_ = std::max<size_t>(main_.size(), 64);
  while (ghost_fifo_.size() > ghost_capacity_) {
    ghost_set_.erase(ghost_fifo_.front());
    ghost_fifo_.pop_front();
  }
}

bool S3Fifo::GhostErase(uint64_t vpn) {
  // Lazy: the FIFO entry stays until it ages out; the set is authoritative.
  return ghost_set_.erase(vpn) > 0;
}

void S3Fifo::PlaceNew(PageFrame* f) {
  f->freq = 0;
  if (f->vpn != kInvalidVpn && GhostErase(f->vpn)) {
    // Refault of a recently evicted page: straight into Main.
    ++ghost_hits_;
    main_.PushBack(f);
    f->lru_list = kMain;
  } else {
    small_.PushBack(f);
    f->lru_list = kSmall;
  }
}

PageAccounting::InsertPlan S3Fifo::PlanInsert(CoreId core, const PageFrame* f) {
  return InsertPlan{&lock_, costs_.insert_cs_ns};
}

void S3Fifo::CommitInsert(CoreId core, PageFrame* f, SimTime start) {
  MAGESIM_ASSERT_HELD(lock_, "s3fifo queues (insert)");
  PlaceNew(f);
  CountInsert(start);
}

void S3Fifo::InsertSetup(CoreId core, PageFrame* f) {
  PlaceNew(f);
  ++stats_.inserts;
}

Task<size_t> S3Fifo::IsolateBatch(int evictor_id, CoreId core, size_t want,
                                  std::vector<PageFrame*>* out) {
  auto g = co_await lock_.Scoped();
  MAGESIM_ASSERT_HELD(lock_, "s3fifo queues (isolate scan)");
  size_t got = 0;
  size_t budget = std::min(want * 4, small_.size() + main_.size());
  while (got < want && budget > 0 && tracked_pages() > 0) {
    co_await Delay{costs_.scan_per_page_ns};
    --budget;
    ++stats_.scanned;
    // Evict from Small while it exceeds its 10% target, else from Main.
    bool from_small = !small_.empty() && (SmallOverTarget() || main_.empty());
    FrameList& q = from_small ? small_ : main_;
    if (q.empty()) break;
    PageFrame* f = q.PopFront();
    bool accessed = f->vpn != kInvalidVpn && pt_.At(f->vpn).accessed;
    if (accessed) {
      pt_.At(f->vpn).accessed = false;
      f->freq = static_cast<uint8_t>(std::min<int>(f->freq + 1, kMaxFreq));
    }
    if (from_small) {
      if (f->freq > 0) {
        // Referenced while in Small: promote to Main.
        main_.PushBack(f);
        f->lru_list = kMain;
        ++stats_.reactivated;
        continue;
      }
      GhostInsert(f->vpn);
    } else {
      if (f->freq > 0) {
        // Lazy promotion: second chance proportional to frequency.
        --f->freq;
        main_.PushBack(f);
        ++stats_.reactivated;
        continue;
      }
    }
    f->lru_list = -1;
    f->state = PageFrame::State::kIsolated;
    out->push_back(f);
    ++got;
    ++stats_.isolated;
  }
  co_return got;
}

void S3Fifo::Unlink(PageFrame* f) {
  if (!f->linked()) return;
  if (f->lru_list == kSmall) {
    small_.Remove(f);
  } else {
    main_.Remove(f);
  }
  f->lru_list = -1;
}

}  // namespace magesim
