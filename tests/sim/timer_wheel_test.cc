// The engine's timer wheel must pop events in exactly the (t, seq) order of
// the 4-ary heap it replaced: every test here drives one push/pop stream
// through a TimerWheel and a reference DAryHeap and compares each pop, and
// checks due_now() against the reference's minimum before it.
#include "src/sim/timer_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/event_heap.h"
#include "src/sim/random.h"

namespace magesim {
namespace {

using Event = Engine::Event;
using Before = Engine::EventBefore;
using Wheel = TimerWheel<Event, Before>;
constexpr SimTime W = static_cast<SimTime>(Wheel::kSlots);

// The wheel and the reference heap, fed the same stream.
class Pair {
 public:
  void Push(SimTime t) {
    Event ev{t, seq_++, {}, kNoTask};
    wheel_.push(ev);
    ref_.push(ev);
  }

  // Pops one event from both and checks they agree; returns its t.
  SimTime Pop() {
    EXPECT_FALSE(ref_.empty());
    EXPECT_FALSE(wheel_.empty());
    EXPECT_EQ(wheel_.due_now(), ref_.top().t == wheel_.now()) << "pop " << pops_;
    const Event want = ref_.top();
    ref_.pop();
    Event got{};
    EXPECT_TRUE(wheel_.pop(&got));
    EXPECT_EQ(got.t, want.t) << "pop " << pops_;
    EXPECT_EQ(got.seq, want.seq) << "pop " << pops_;
    EXPECT_EQ(wheel_.now(), want.t);
    ++pops_;
    return want.t;
  }

  void Drain() {
    while (!ref_.empty()) Pop();
    EXPECT_TRUE(wheel_.empty());
    EXPECT_FALSE(wheel_.due_now());
    Event none{};
    EXPECT_FALSE(wheel_.pop(&none));
  }

  bool empty() const { return ref_.empty(); }
  uint64_t pops() const { return pops_; }
  SimTime now() const { return wheel_.now(); }

  // Moves now() to `t` by pushing and popping one event there.
  void AdvanceTo(SimTime t) {
    Push(t);
    EXPECT_EQ(Pop(), t);
  }

 private:
  Wheel wheel_;
  DAryHeap<Event, Before> ref_;
  uint64_t seq_ = 0;
  uint64_t pops_ = 0;
};

// The delays a push draws from: the same-time and one-nanosecond edges, the
// cost-model delays that dominate fault-heavy runs, the horizon edges, a far
// delay, and delays that land at or just below the end of SimTime.
SimTime DrawDelay(Rng& rng, SimTime now) {
  static constexpr SimTime kCostModel[] = {25, 40, 60, 100, 150, 250, 300, 450};
  const SimTime headroom = kSimTimeMax - now;
  const uint64_t r = rng.NextU64(100);
  SimTime dt;
  if (r < 5) {
    dt = 0;
  } else if (r < 15) {
    dt = 1;
  } else if (r < 70) {
    dt = kCostModel[rng.NextU64(8)];
  } else if (r < 78) {
    dt = W - 1;
  } else if (r < 86) {
    dt = W;
  } else if (r < 94) {
    dt = W + 1;
  } else if (r < 99) {
    dt = 10 * W;
  } else {
    dt = headroom - std::min(static_cast<SimTime>(rng.NextU64(3)), headroom);
  }
  return std::min(dt, headroom);
}

// Runs `ops` random pushes and pops from `start`, pushing with probability
// push_pct%, then drains. Returns the number of pops checked.
uint64_t RunStream(uint64_t seed, SimTime start, int ops, int push_pct) {
  Rng rng(seed);
  Pair q;
  q.AdvanceTo(start);
  for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
    if (q.empty() || static_cast<int>(rng.NextU64(100)) < push_pct) {
      q.Push(q.now() + DrawDelay(rng, q.now()));
    } else {
      q.Pop();
    }
  }
  q.Drain();
  return q.pops();
}

TEST(TimerWheelTest, RandomStreamsPopInHeapOrder) {
  // Push shares above 50% build standing queues of thousands of events,
  // below 50% keep the queue near empty; both wrap the slot index many times.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const int push_pct = 40 + static_cast<int>(seed % 4) * 7;
    EXPECT_GT(RunStream(seed, 0, 40000, push_pct), 10000u) << "seed " << seed;
    if (HasFailure()) return;
  }
}

TEST(TimerWheelTest, RandomStreamsNearTheEndOfSimTime) {
  // Slot indices of t near INT64_MAX, and now() itself close enough that
  // every delay is clamped at kSimTimeMax.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunStream(seed, kSimTimeMax - 50 * W - static_cast<SimTime>(seed), 20000, 55);
    if (HasFailure()) return;
  }
}

TEST(TimerWheelTest, SlotIndexWrapsAround) {
  // From now() = 2W - 100, times 2W - 1, 2W and 2W + 1 sit in the last and
  // first slots; 3W - 101 is the farthest wheel time and lands in the slot
  // just before now()'s, so it must pop last among the wheel events.
  Pair q;
  q.AdvanceTo(2 * W - 100);
  for (SimTime t : {3 * W - 101, 2 * W + 1, 2 * W, 2 * W - 1, 2 * W - 100, 2 * W - 99}) {
    q.Push(t);
  }
  std::vector<SimTime> popped;
  while (!q.empty()) popped.push_back(q.Pop());
  EXPECT_EQ(popped, (std::vector<SimTime>{2 * W - 100, 2 * W - 99, 2 * W - 1, 2 * W,
                                          2 * W + 1, 3 * W - 101}));
}

TEST(TimerWheelTest, OneTimestampSplitAcrossFarTierAndWheel) {
  // At now() = 0, t = W + 5 is beyond the horizon and goes to the far tier.
  // Once now() = 10, the same t is within it, so later pushes go to the
  // wheel; the far event was pushed first and must pop first.
  Pair q;
  q.Push(W + 5);  // far
  q.Push(W);      // far: dt == W is not within the horizon
  q.Push(W - 1);  // wheel
  q.AdvanceTo(10);
  q.Push(W + 5);  // wheel, same t as the first push
  q.Push(W);      // wheel, same t as the second push
  q.Push(W + 5);  // wheel
  q.Drain();
  EXPECT_EQ(q.pops(), 7u);
}

TEST(TimerWheelTest, SameTimeEventsKeepPushOrderAcrossPops) {
  // Pushes at t == now() join the slot being drained, behind its earlier
  // events; pops in between must not reorder them.
  Pair q;
  q.AdvanceTo(W - 3);
  for (int i = 0; i < 4; ++i) q.Push(W + 7);
  q.AdvanceTo(W + 7);  // pops the first of the four; the new one is last
  q.Pop();
  q.Push(W + 7);
  q.Pop();
  q.Push(W + 7);
  q.Drain();
  EXPECT_EQ(q.pops(), 8u);
}

}  // namespace
}  // namespace magesim
