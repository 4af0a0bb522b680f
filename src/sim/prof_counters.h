// Zero-default-cost cycle attribution for the simulator's hot path.
//
// Sampling profilers mis-attribute coroutine-heavy code (mcount arcs and
// gprof call counts are corrupted by frame resumption; see
// docs/INTERNALS.md "Profiling the event loop"), so hot-path attribution is
// done with explicit rdtsc scopes instead. Compile with -DMAGESIM_PROF to
// activate; without it every macro expands to nothing and the simulator is
// byte-for-byte unaffected.
//
//   void Engine::Run() {
//     ...
//     { MAGESIM_PROF_SCOPE(resume); ev.h.resume(); }
//   }
//
// A table (calls, total cycles, cycles/call, self cycles/call, share) is
// printed to stderr at process exit. Scopes nest freely: a scope's cycles
// include its nested scopes, its self cycles exclude them (a stack of the
// active scopes tracks the nesting), and `share` is over self cycles, so
// that column partitions the profiled time. A nested scope's own entry and
// exit bookkeeping still lands in its parent's self cycles.
//
// Only place scopes in PLAIN functions: a scope inside a coroutine would
// live across suspension points and absorb every other activity that runs
// while the coroutine is parked.
#ifndef MAGESIM_SIM_PROF_COUNTERS_H_
#define MAGESIM_SIM_PROF_COUNTERS_H_

#ifdef MAGESIM_PROF

#include <cstdint>
#include <x86intrin.h>

namespace magesim {
namespace prof {

struct Counter {
  explicit Counter(const char* name);
  const char* name;
  uint64_t cycles = 0;       // inclusive of nested scopes
  uint64_t self_cycles = 0;  // exclusive of nested scopes
  uint64_t calls = 0;
  Counter* next = nullptr;  // intrusive registry chain
};

// Prints the counter table to stderr (registered via atexit on first use).
void Report();

class Scope {
 public:
  explicit Scope(Counter& c) : c_(c), parent_(active_) {
    active_ = this;
    t0_ = __rdtsc();
  }
  ~Scope() {
    const uint64_t dt = __rdtsc() - t0_;
    c_.cycles += dt;
    c_.self_cycles += dt - nested_;
    ++c_.calls;
    if (parent_ != nullptr) parent_->nested_ += dt;
    active_ = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  static inline Scope* active_ = nullptr;  // innermost open scope

  Counter& c_;
  Scope* parent_;
  uint64_t t0_ = 0;
  uint64_t nested_ = 0;  // cycles of the scopes nested directly in this one
};

}  // namespace prof
}  // namespace magesim

#define MAGESIM_PROF_CONCAT2(a, b) a##b
#define MAGESIM_PROF_CONCAT(a, b) MAGESIM_PROF_CONCAT2(a, b)
#define MAGESIM_PROF_SCOPE(name_token)                             \
  static ::magesim::prof::Counter MAGESIM_PROF_CONCAT(             \
      magesim_prof_counter_, __LINE__){#name_token};               \
  ::magesim::prof::Scope MAGESIM_PROF_CONCAT(magesim_prof_scope_,  \
                                             __LINE__)(            \
      MAGESIM_PROF_CONCAT(magesim_prof_counter_, __LINE__))

#else  // !MAGESIM_PROF

#define MAGESIM_PROF_SCOPE(name_token) ((void)0)

#endif  // MAGESIM_PROF

#endif  // MAGESIM_SIM_PROF_COUNTERS_H_
