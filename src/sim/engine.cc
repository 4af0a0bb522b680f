#include "src/sim/engine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/sim/prof_counters.h"

namespace magesim {

Engine* Engine::current_ = nullptr;

Engine::Engine() {
  if (current_ != nullptr) {
    std::fprintf(stderr, "magesim: only one Engine may exist at a time\n");
    std::abort();
  }
  current_ = this;
  // Steady-state push/pop must not allocate; 4K events outgrows every
  // workload's standing event population by a wide margin.
  future_.reserve(4096);
}

Engine::~Engine() { current_ = nullptr; }

TaskId Engine::Spawn(Task<> task) {
  TaskId id = ++last_task_id_;
  ScheduleAt(now_, task.Detach(), id);
  return id;
}

uint64_t Engine::Run() {
  uint64_t processed = 0;
  for (;;) {
    Event ev;
    // ready_ is (t, seq)-sorted by construction and its front carries
    // t == now_. A future event due at now_ was scheduled before the clock
    // reached now_, so its seq is below that front's; any other future event
    // is later. Popping future_ first exactly when it has an event due now
    // therefore yields the global (t, seq) minimum — identical extraction
    // order to a single heap.
    assert(ready_.empty() || ready_.front().t == now_);
    if (!ready_.empty() && !future_.due_now()) {
      ev = ready_.front();
      ready_.pop_front();
    } else {
      MAGESIM_PROF_SCOPE(run_heap_pop);
      if (!future_.pop(&ev)) break;
    }
    assert(ev.t >= now_);
    now_ = ev.t;
    assert(future_.now() == now_);
    current_task_ = ev.task;
    ++processed;
    {
      MAGESIM_PROF_SCOPE(run_resume);
      ev.h.resume();
    }
  }
  current_task_ = kNoTask;
  events_processed_ += processed;
  return processed;
}

}  // namespace magesim
