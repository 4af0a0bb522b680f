#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/task.h"

namespace magesim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineTest, RunOnEmptyQueueReturnsZero) {
  Engine e;
  EXPECT_EQ(e.Run(), 0u);
}

Task<> RecordTimes(Engine& e, std::vector<SimTime>& out) {
  out.push_back(e.now());
  co_await Delay{100};
  out.push_back(e.now());
  co_await Delay{250};
  out.push_back(e.now());
}

TEST(EngineTest, DelayAdvancesTime) {
  Engine e;
  std::vector<SimTime> times;
  e.Spawn(RecordTimes(e, times));
  e.Run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 100);
  EXPECT_EQ(times[2], 350);
}

TEST(EngineTest, ZeroDelayDoesNotSuspend) {
  Engine e;
  int steps = 0;
  auto body = [](int& steps) -> Task<> {
    co_await Delay{0};
    ++steps;
    co_await Delay{-5};
    ++steps;
  };
  e.Spawn(body(steps));
  e.Run();
  EXPECT_EQ(steps, 2);
}

Task<> Ticker(Engine& e, SimTime period, int count, std::vector<std::pair<int, SimTime>>& log,
              int id) {
  for (int i = 0; i < count; ++i) {
    co_await Delay{period};
    log.emplace_back(id, e.now());
  }
}

TEST(EngineTest, InterleavesTasksInTimeOrder) {
  Engine e;
  std::vector<std::pair<int, SimTime>> log;
  e.Spawn(Ticker(e, 30, 3, log, 1));  // fires at 30, 60, 90
  e.Spawn(Ticker(e, 20, 3, log, 2));  // fires at 20, 40, 60
  e.Run();
  ASSERT_EQ(log.size(), 6u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].second, log[i].second);
  }
  // Equal timestamps (60) preserve scheduling order: task 1 was scheduled
  // for t=60 before task 2 re-armed for t=60.
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{2, 20}));
}

Task<int> Inner() {
  co_await Delay{10};
  co_return 42;
}

Task<> Outer(Engine& e, int& result, SimTime& when) {
  result = co_await Inner();
  when = e.now();
}

TEST(EngineTest, AwaitingTaskPropagatesValueAndTime) {
  Engine e;
  int result = 0;
  SimTime when = -1;
  e.Spawn(Outer(e, result, when));
  e.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(when, 10);
}

Task<> Thrower() {
  co_await Delay{5};
  throw std::runtime_error("boom");
}

Task<> Catcher(bool& caught) {
  try {
    co_await Thrower();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(EngineTest, ExceptionPropagatesToAwaiter) {
  Engine e;
  bool caught = false;
  e.Spawn(Catcher(caught));
  e.Run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, ShutdownFlagIsObservable) {
  Engine e;
  int iterations = 0;
  auto loop = [](Engine& e, int& iterations) -> Task<> {
    while (!e.shutdown_requested()) {
      co_await Delay{100};
      ++iterations;
    }
  };
  auto stopper = [](Engine& e) -> Task<> {
    co_await Delay{1000};
    e.RequestShutdown();
  };
  e.Spawn(loop(e, iterations));
  e.Spawn(stopper(e));
  e.Run();
  EXPECT_EQ(iterations, 10);
}

TEST(EngineTest, DeterministicEventCount) {
  auto run_once = []() {
    Engine e;
    std::vector<std::pair<int, SimTime>> log;
    e.Spawn(Ticker(e, 7, 100, log, 1));
    e.Spawn(Ticker(e, 11, 100, log, 2));
    e.Run();
    return e.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, YieldNowRunsOtherSameTimeEventsFirst) {
  Engine e;
  std::vector<int> order;
  auto a = [](std::vector<int>& order) -> Task<> {
    order.push_back(1);
    co_await YieldNow{};
    order.push_back(3);
  };
  auto b = [](std::vector<int>& order) -> Task<> {
    order.push_back(2);
    co_return;
  };
  e.Spawn(a(order));
  e.Spawn(b(order));
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, ResumesAcrossTheTimerWheelHorizon) {
  // Delays of W and more go to the far tier, shorter ones to the wheel. At
  // t = W three tasks resume: `far` was scheduled from t = 0 (far tier),
  // `early` from t = 1 and `late` from t = W - 1 (both wheel); scheduling
  // order decides, whichever tier holds the event.
  constexpr SimTime W = static_cast<SimTime>(TimerWheel<Engine::Event, Engine::EventBefore>::kSlots);
  Engine e;
  std::vector<std::pair<int, SimTime>> log;
  auto chain = [](Engine& e, std::vector<std::pair<int, SimTime>>& log, int id,
                  std::vector<SimTime> delays) -> Task<> {
    for (SimTime d : delays) {
      co_await Delay{d};
      log.emplace_back(id, e.now());
    }
  };
  e.Spawn(chain(e, log, 1, {W - 1, 1}));        // late
  e.Spawn(chain(e, log, 2, {W}));               // far
  e.Spawn(chain(e, log, 3, {1, W - 1}));        // early
  e.Spawn(chain(e, log, 4, {W + 1}));           // far, one past the others
  e.Spawn(chain(e, log, 5, {10 * W, W, W - 1})); // same slot index, later laps
  e.Spawn(chain(e, log, 6, {2 * W - 1}));       // slot just before W's
  e.Run();
  EXPECT_EQ(log, (std::vector<std::pair<int, SimTime>>{{3, 1},
                                                        {1, W - 1},
                                                        {2, W},
                                                        {3, W},
                                                        {1, W},
                                                        {4, W + 1},
                                                        {6, 2 * W - 1},
                                                        {5, 10 * W},
                                                        {5, 11 * W},
                                                        {5, 12 * W - 1}}));
}

}  // namespace
}  // namespace magesim
