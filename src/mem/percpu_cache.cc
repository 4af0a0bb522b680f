#include "src/mem/percpu_cache.h"

#include "src/analysis/lock_analyzer.h"
#include "src/sim/engine.h"

namespace magesim {

PcpAllocator::PcpAllocator(BuddyAllocator& buddy, int num_cores, AllocatorCosts costs, int batch,
                           int high_watermark)
    : buddy_(buddy), costs_(costs), batch_(batch), high_(high_watermark) {
  caches_.resize(static_cast<size_t>(num_cores));
  buddy_.SetGuard(&buddy_lock_);
}

PageAllocator::AllocAttempt PcpAllocator::BeginAlloc(CoreId core) {
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->CheckCoreAffinity(core, "pcp cache fill");
  }
  return AllocAttempt{.start = Engine::current().now(),
                      .fast = !caches_[static_cast<size_t>(core)].empty(),
                      .cost = costs_.pcp_hit_ns};
}

bool PcpAllocator::CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) {
  // Re-check after the hit delay: another context on this core (e.g. a
  // prefetch task) may have drained the cache meanwhile.
  auto& cache = caches_[static_cast<size_t>(core)];
  if (cache.empty()) return false;
  *out = cache.back();
  cache.pop_back();
  ChargeAlloc(Engine::current().now() - a.start);
  return true;
}

Task<PageFrame*> PcpAllocator::AllocSlow(CoreId core, SimTime start) {
  auto& cache = caches_[static_cast<size_t>(core)];
  // Refill a batch from the buddy allocator under its lock.
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
  if (cache.empty()) {
    ChargeAlloc(Engine::current().now() - start);
    co_return nullptr;
  }
  PageFrame* f = cache.back();
  cache.pop_back();
  ChargeAlloc(Engine::current().now() - start);
  co_return f;
}

Task<> PcpAllocator::Free(CoreId core, PageFrame* f) {
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->CheckCoreAffinity(core, "pcp cache spill");
  }
  auto& cache = caches_[static_cast<size_t>(core)];
  co_await Delay{costs_.pcp_hit_ns};
  cache.push_back(f);
  if (static_cast<int>(cache.size()) > high_) {
    auto g = co_await buddy_lock_.Scoped();
    co_await Delay{costs_.buddy_cs_base_ns};
    while (!cache.empty() && static_cast<int>(cache.size()) > high_ - batch_) {
      co_await Delay{costs_.pcp_move_per_page_ns};
      if (cache.empty()) break;  // drained during the per-page delay
      buddy_.FreePage(cache.back());
      cache.pop_back();
    }
  }
}

Task<> PcpAllocator::FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) {
  // Reclaim bypasses the pcp cache and frees straight to the buddy (as
  // Linux's release_pages does for reclaimed batches).
  auto g = co_await buddy_lock_.Scoped();
  co_await Delay{costs_.buddy_cs_base_ns};
  for (PageFrame* f : frames) {
    buddy_.FreePage(f);
    co_await Delay{costs_.buddy_cs_per_work_ns * buddy_.last_op_work()};
  }
}

void PcpAllocator::AppendCached(std::vector<PageFrame*>* out) const {
  for (const auto& cache : caches_) {
    out->insert(out->end(), cache.begin(), cache.end());
  }
}

GlobalMutexAllocator::GlobalMutexAllocator(BuddyAllocator& buddy, AllocatorCosts costs)
    : buddy_(buddy), costs_(costs) {
  buddy_.SetGuard(&mutex_);
}

PageAllocator::AllocAttempt GlobalMutexAllocator::BeginAlloc(CoreId core) {
  return AllocAttempt{.start = Engine::current().now(),
                      .fast = true,
                      .lock = &mutex_,
                      .cost = costs_.global_mutex_cs_ns};
}

bool GlobalMutexAllocator::CommitFast(CoreId core, const AllocAttempt& a, PageFrame** out) {
  *out = buddy_.AllocPage();
  ChargeAlloc(Engine::current().now() - a.start);
  return true;
}

Task<> GlobalMutexAllocator::Free(CoreId core, PageFrame* f) {
  auto g = co_await mutex_.Scoped();
  co_await Delay{costs_.global_mutex_cs_ns};
  buddy_.FreePage(f);
}

Task<> GlobalMutexAllocator::FreeBatch(CoreId core, const std::vector<PageFrame*>& frames) {
  auto g = co_await mutex_.Scoped();
  for (PageFrame* f : frames) {
    co_await Delay{costs_.global_mutex_cs_ns / 2};  // batched frees amortize
    buddy_.FreePage(f);
  }
}

}  // namespace magesim
