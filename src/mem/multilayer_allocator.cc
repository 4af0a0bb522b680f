#include "src/mem/multilayer_allocator.h"

#include "src/analysis/guarded.h"
#include "src/analysis/lock_analyzer.h"
#include "src/sim/engine.h"

namespace magesim {

MultilayerAllocator::MultilayerAllocator(BuddyAllocator& buddy, int num_cores,
                                         AllocatorCosts costs, int core_cache_batch,
                                         int core_cache_high)
    : buddy_(buddy), costs_(costs), batch_(core_cache_batch), high_(core_cache_high) {
  caches_.resize(static_cast<size_t>(num_cores));
  buddy_.SetGuard(&buddy_lock_);
}

PageAllocator::AllocAttempt MultilayerAllocator::BeginAlloc(CoreId core) {
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->CheckCoreAffinity(core, "core cache fill");
  }
  return AllocAttempt{.start = Engine::current().now(),
                      .fast = !caches_[static_cast<size_t>(core)].empty(),
                      .cost = costs_.pcp_hit_ns};
}

bool MultilayerAllocator::CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) {
  // Re-check: a prefetch task sharing this core may have drained the cache
  // during the hit delay.
  auto& cache = caches_[static_cast<size_t>(core)];
  if (cache.empty()) return false;
  PageFrame* f = cache.back();
  cache.pop_back();
  f->state = PageFrame::State::kAllocated;
  ChargeAlloc(Engine::current().now() - a.start);
  *out = f;
  return true;
}

Task<PageFrame*> MultilayerAllocator::AllocSlow(CoreId core, SimTime start) {
  auto& cache = caches_[static_cast<size_t>(core)];
  // Level 2: batch-pop from the shared concurrent queue. The critical section
  // is one pointer-range splice, independent of batch size.
  {
    auto g = co_await queue_lock_.Scoped();
    co_await Delay{costs_.shared_queue_cs_ns};
    MAGESIM_ASSERT_HELD(queue_lock_, "shared queue (refill pop)");
    for (int i = 0; i < batch_ && !shared_queue_.empty(); ++i) {
      cache.push_back(shared_queue_.front());
      shared_queue_.pop_front();
    }
  }
  if (!cache.empty()) {
    PageFrame* f = cache.back();
    cache.pop_back();
    f->state = PageFrame::State::kAllocated;
    ChargeAlloc(Engine::current().now() - start);
    co_return f;
  }
  // Level 3: buddy fallback (cold start or eviction falling behind).
  {
    auto g = co_await buddy_lock_.Scoped();
    co_await Delay{costs_.buddy_cs_base_ns};
    for (int i = 0; i < batch_; ++i) {
      PageFrame* f = buddy_.AllocPage();
      if (f == nullptr) break;
      co_await Delay{costs_.pcp_move_per_page_ns};
      cache.push_back(f);
    }
  }
  PageFrame* f = nullptr;
  if (!cache.empty()) {
    f = cache.back();
    cache.pop_back();
    f->state = PageFrame::State::kAllocated;
  }
  ChargeAlloc(Engine::current().now() - start);
  co_return f;
}

Task<> MultilayerAllocator::Free(CoreId core, PageFrame* f) {
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->CheckCoreAffinity(core, "core cache spill");
  }
  auto& cache = caches_[static_cast<size_t>(core)];
  co_await Delay{costs_.pcp_hit_ns};
  cache.push_back(f);
  if (static_cast<int>(cache.size()) > high_) {
    auto g = co_await queue_lock_.Scoped();
    co_await Delay{costs_.shared_queue_cs_ns};
    MAGESIM_ASSERT_HELD(queue_lock_, "shared queue (spill push)");
    // Size re-checked each step: concurrent Allocs on this core may have
    // drained the cache while we held the queue lock.
    while (!cache.empty() && static_cast<int>(cache.size()) > high_ - batch_) {
      shared_queue_.push_back(cache.back());
      cache.pop_back();
    }
  }
}

Task<> MultilayerAllocator::FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) {
  auto g = co_await queue_lock_.Scoped();
  co_await Delay{costs_.shared_queue_cs_ns};
  MAGESIM_ASSERT_HELD(queue_lock_, "shared queue (reclaim batch push)");
  for (PageFrame* f : frames) {
    f->state = PageFrame::State::kFree;
    f->vpn = kInvalidVpn;
    f->dirty = false;
    shared_queue_.push_back(f);
  }
}

void MultilayerAllocator::AppendCached(std::vector<PageFrame*>* out) const {
  for (const auto& cache : caches_) {
    out->insert(out->end(), cache.begin(), cache.end());
  }
  out->insert(out->end(), shared_queue_.begin(), shared_queue_.end());
}

}  // namespace magesim
