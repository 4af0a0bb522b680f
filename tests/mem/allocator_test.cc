#include <gtest/gtest.h>

#include "src/mem/multilayer_allocator.h"
#include "src/mem/percpu_cache.h"
#include "src/sim/engine.h"

namespace magesim {
namespace {

template <typename Body>
void RunSim(Body body) {
  Engine e;
  e.Spawn(body());
  e.Run();
}

TEST(PcpAllocatorTest, AllocFreeRoundTrip) {
  Engine e;
  FramePool pool(256);
  BuddyAllocator buddy(pool);
  PcpAllocator alloc(buddy, 4);
  e.Spawn([](PcpAllocator& a) -> Task<> {
    PageFrame* f = co_await a.Alloc(0);
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(f->state, PageFrame::State::kAllocated);
    co_await a.Free(0, f);
  }(alloc));
  e.Run();
}

TEST(PcpAllocatorTest, RefillBatchesFromBuddy) {
  Engine e;
  FramePool pool(256);
  BuddyAllocator buddy(pool);
  PcpAllocator alloc(buddy, 2, {}, /*batch=*/8);
  e.Spawn([](PcpAllocator& a, BuddyAllocator& b) -> Task<> {
    co_await a.Alloc(0);
    // One refill pulled `batch` pages out of the buddy.
    EXPECT_EQ(b.free_pages(), 256u - 8u);
    EXPECT_EQ(a.CacheSize(0), 7u);  // batch minus the returned page
    co_await a.Alloc(0);
    EXPECT_EQ(a.CacheSize(0), 6u);
    EXPECT_EQ(b.free_pages(), 256u - 8u);  // served from cache
  }(alloc, buddy));
  e.Run();
}

TEST(PcpAllocatorTest, ExhaustionReturnsNull) {
  Engine e;
  FramePool pool(16);
  BuddyAllocator buddy(pool);
  PcpAllocator alloc(buddy, 1, {}, /*batch=*/4);
  e.Spawn([](PcpAllocator& a) -> Task<> {
    for (int i = 0; i < 16; ++i) {
      EXPECT_NE(co_await a.Alloc(0), nullptr);
    }
    EXPECT_EQ(co_await a.Alloc(0), nullptr);
  }(alloc));
  e.Run();
}

Task<> Hammer(PageAllocator& a, CoreId core, int iters, WaitGroup& wg) {
  for (int i = 0; i < iters; ++i) {
    PageFrame* f = co_await a.Alloc(core);
    EXPECT_NE(f, nullptr);
    co_await Delay{50};
    co_await a.Free(core, f);
  }
  wg.Done();
}

TEST(GlobalMutexAllocatorTest, ContentionGrowsWithCores) {
  auto wait_per_op = [](int cores) {
    Engine e;
    FramePool pool(4096);
    BuddyAllocator buddy(pool);
    GlobalMutexAllocator alloc(buddy);
    WaitGroup wg;
    for (int c = 0; c < cores; ++c) {
      wg.Add();
      e.Spawn(Hammer(alloc, c, 100, wg));
    }
    e.Run();
    return alloc.lock_stats().mean_wait_ns();
  };
  double solo = wait_per_op(1);
  double crowd = wait_per_op(16);
  EXPECT_EQ(solo, 0.0);       // uncontended
  EXPECT_GT(crowd, 1000.0);   // queueing delay dominates
}

TEST(MultilayerAllocatorTest, EvictorBatchFeedsFaultPathWithoutBuddy) {
  Engine e;
  FramePool pool(1024);
  BuddyAllocator buddy(pool);
  MultilayerAllocator alloc(buddy, 4, {}, /*core_cache_batch=*/8);
  e.Spawn([](MultilayerAllocator& a, BuddyAllocator& b) -> Task<> {
    // Cold start: core 0 falls through to the buddy.
    PageFrame* f0 = co_await a.Alloc(0);
    EXPECT_NE(f0, nullptr);
    uint64_t buddy_free_after_cold = b.free_pages();

    // "Evictor" on core 3 reclaims a batch into the shared queue.
    std::vector<PageFrame*> batch;
    for (int i = 0; i < 16; ++i) {
      PageFrame* f = co_await a.Alloc(3);
      EXPECT_NE(f, nullptr);
      batch.push_back(f);
    }
    uint64_t buddy_free_before = b.free_pages();
    co_await a.FreeBatch(3, batch);
    EXPECT_EQ(a.shared_queue_size(), 16u);
    EXPECT_EQ(b.free_pages(), buddy_free_before);  // buddy untouched

    // A different core's fault path drains the shared queue, not the buddy.
    PageFrame* f1 = co_await a.Alloc(2);
    EXPECT_NE(f1, nullptr);
    EXPECT_EQ(b.free_pages(), buddy_free_before);
    EXPECT_LT(a.shared_queue_size(), 16u);
    (void)buddy_free_after_cold;
  }(alloc, buddy));
  e.Run();
}

TEST(MultilayerAllocatorTest, GlobalFreeCountsQueueAndBuddy) {
  Engine e;
  FramePool pool(64);
  BuddyAllocator buddy(pool);
  MultilayerAllocator alloc(buddy, 2, {}, 4);
  e.Spawn([](MultilayerAllocator& a, BuddyAllocator& b) -> Task<> {
    std::vector<PageFrame*> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(co_await a.Alloc(0));
    co_await a.FreeBatch(1, batch);
    EXPECT_EQ(a.global_free_pages(), b.free_pages() + 8u);
  }(alloc, buddy));
  e.Run();
}

TEST(MultilayerAllocatorTest, FaultPathCheaperThanGlobalMutexUnderLoad) {
  auto mean_alloc_ns = [](bool multilayer) {
    Engine e;
    FramePool pool(1 << 14);
    BuddyAllocator buddy(pool);
    std::unique_ptr<PageAllocator> a;
    if (multilayer) {
      a = std::make_unique<MultilayerAllocator>(buddy, 16);
    } else {
      a = std::make_unique<GlobalMutexAllocator>(buddy);
    }
    WaitGroup wg;
    for (int c = 0; c < 16; ++c) {
      wg.Add();
      e.Spawn(Hammer(*a, c, 200, wg));
    }
    e.Run();
    return static_cast<double>(a->alloc_time_total()) / static_cast<double>(a->allocs());
  };
  EXPECT_LT(mean_alloc_ns(true) * 3, mean_alloc_ns(false));
}

// Two allocations on one core both find the core cache's last frame and pay
// the hit delay; the one that finds it gone after the delay falls to the
// refill without paying the hit delay a second time. `refill_ns` is that
// refill's closed-form cost (and the cost of the first, cache-filling
// allocation, which finds the cache empty).
void CheckDrainDuringHitDelay(PageAllocator& a, SimTime refill_ns) {
  Engine e;
  SimTime took[2] = {-1, -1};
  e.Spawn([](PageAllocator& a, SimTime* took) -> Task<> {
    // A batch-2 refill leaves one frame cached.
    EXPECT_NE(co_await a.Alloc(0), nullptr);
    WaitGroup wg;
    for (int i = 0; i < 2; ++i) {
      wg.Add();
      Engine::current().Spawn([](PageAllocator& a, SimTime& took, WaitGroup& wg) -> Task<> {
        SimTime t0 = Engine::current().now();
        EXPECT_NE(co_await a.Alloc(0), nullptr);
        took = Engine::current().now() - t0;
        wg.Done();
      }(a, took[i], wg));
    }
    co_await wg.Wait();
  }(a, took));
  e.Run();
  const SimTime hit = AllocatorCosts{}.pcp_hit_ns;
  EXPECT_EQ(took[0], hit);
  EXPECT_EQ(took[1], hit + refill_ns);
  EXPECT_EQ(a.allocs(), 3u);
  EXPECT_EQ(a.alloc_time_total(), refill_ns + hit + hit + refill_ns);
}

TEST(PcpAllocatorTest, CacheDrainedDuringHitDelayRefillsWithoutSecondHit) {
  FramePool pool(64);
  BuddyAllocator buddy(pool);
  PcpAllocator alloc(buddy, 1, {}, /*batch=*/2);
  const AllocatorCosts c;
  CheckDrainDuringHitDelay(alloc, c.buddy_cs_base_ns + 2 * c.pcp_move_per_page_ns);  // 310
}

TEST(MultilayerAllocatorTest, CacheDrainedDuringHitDelayRefillsWithoutSecondHit) {
  FramePool pool(64);
  BuddyAllocator buddy(pool);
  MultilayerAllocator alloc(buddy, 1, {}, /*core_cache_batch=*/2);
  const AllocatorCosts c;
  // An empty shared queue, then the buddy fallback: 380.
  CheckDrainDuringHitDelay(
      alloc, c.shared_queue_cs_ns + c.buddy_cs_base_ns + 2 * c.pcp_move_per_page_ns);
}

TEST(GlobalMutexAllocatorTest, ContendedAllocsQueueOnTheMutex) {
  Engine e;
  FramePool pool(64);
  BuddyAllocator buddy(pool);
  GlobalMutexAllocator alloc(buddy);
  for (int i = 0; i < 3; ++i) {
    e.Spawn([](PageAllocator& a) -> Task<> { EXPECT_NE(co_await a.Alloc(0), nullptr); }(alloc));
  }
  e.Run();
  const SimTime cs = AllocatorCosts{}.global_mutex_cs_ns;
  EXPECT_EQ(alloc.allocs(), 3u);
  EXPECT_EQ(alloc.alloc_time_total(), cs + 2 * cs + 3 * cs);
  EXPECT_EQ(alloc.lock_stats().contended, 2u);
  EXPECT_EQ(buddy.free_pages(), 61u);
}

}  // namespace
}  // namespace magesim
