// Stage scopes: the one instrumentation point per fault/eviction stage.
//
// `SpanKind` is the only stage vocabulary. A `StageScope` brackets one stage
// interval and, when it closes, feeds every view of it at once:
//   * the sim-time profiler, through the constexpr `StagePhase` map (kinds
//     that map to no phase are roots or leaves other layers emit *inside* a
//     stage — profiler intervals never nest);
//   * the span tracer, as a leaf under `parent` (a null parent emits none:
//     the stage runs outside any traced op, or the layer it calls — the
//     resilient data path, the TLB fan-out — emits its own leaves);
//   * the exact, unsampled per-kind `StageTotals` of the stages faulting
//     threads run (fault path, prefetch allocation, and any synchronous
//     eviction they start); background evictors pass null totals.
// Scopes cost two clock reads, one pointer test per view, and no allocation.
#ifndef MAGESIM_PAGING_STAGE_H_
#define MAGESIM_PAGING_STAGE_H_

#include <array>
#include <cstdint>

#include "src/hw/topology.h"
#include "src/metrics/profiler.h"
#include "src/sim/engine.h"
#include "src/spans/spans.h"

namespace magesim {

// Summed duration and number of closed scopes of one stage kind.
struct StageTotal {
  SimTime total_ns = 0;
  uint64_t count = 0;
};
using StageTotals = std::array<StageTotal, kNumSpanKinds>;  // by SpanKind

// Profiler phase of each stage kind; SimPhase::kNumPhases = not profiled.
constexpr SimPhase StagePhase(SpanKind k) {
  switch (k) {
    case SpanKind::kEntry:
    case SpanKind::kMmLocks:
    case SpanKind::kMapInstall:
      return SimPhase::kFaultMap;
    case SpanKind::kAlloc:
      return SimPhase::kFaultAlloc;
    case SpanKind::kAccounting:
      return SimPhase::kAccounting;
    case SpanKind::kRdmaRead:
    case SpanKind::kRdmaWrite:
      return SimPhase::kRdmaWait;
    case SpanKind::kShootdownWait:
    case SpanKind::kLazyTlbWait:
      return SimPhase::kTlbWait;
    case SpanKind::kUnmapVictims:
    case SpanKind::kReclaim:
      return SimPhase::kEviction;
    case SpanKind::kTenantThrottle:
    case SpanKind::kTenantPark:
    case SpanKind::kFreeWait:
      return SimPhase::kFreeWait;
    default:
      return SimPhase::kNumPhases;
  }
}

class StageScope {
 public:
  // Opens stage `kind` now. `core` is charged in the profiler; the leaf
  // carries `actor` (default: `core`) and `page`.
  StageScope(SpanKind kind, CoreId core, uint64_t page, SpanHandle parent,
             StageTotals* totals)
      : StageScope(kind, core, page, parent, totals, core) {}
  StageScope(SpanKind kind, CoreId core, uint64_t page, SpanHandle parent,
             StageTotals* totals, int32_t actor)
      : totals_(totals),
        parent_(parent),
        page_(page),
        t0_(Engine::current().now()),
        core_(core),
        actor_(actor),
        kind_(kind) {}
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;
  ~StageScope() { End(); }

  // Leaf details only known once the stage has run (or its op has opened).
  void set_parent(SpanHandle parent) { parent_ = parent; }
  void set_link(SpanCausalPoint link) { link_ = link; }
  void set_arg(uint64_t arg) { arg_ = arg; }

  SimTime elapsed() const { return Engine::current().now() - t0_; }

  // Closes the stage (idempotent) and returns its duration.
  SimTime End() {
    if (!open_) return 0;
    open_ = false;
    SimTime t1 = Engine::current().now();
    SimTime ns = t1 - t0_;
    SimPhase phase = StagePhase(kind_);
    if (SimProfiler* prof = SimProfiler::Get();
        prof != nullptr && phase != SimPhase::kNumPhases) {
      prof->AddPhase(core_, phase, ns);
    }
    if (totals_ != nullptr) {
      StageTotal& e = (*totals_)[static_cast<size_t>(kind_)];
      e.total_ns += ns;
      ++e.count;
    }
    SpanLeafUnder(parent_, kind_, t0_, t1, actor_, page_, link_, arg_);
    return ns;
  }

 private:
  StageTotals* totals_;
  SpanHandle parent_;
  SpanCausalPoint link_{};
  uint64_t page_;
  uint64_t arg_ = 0;
  SimTime t0_;
  CoreId core_;
  int32_t actor_;
  SpanKind kind_;
  bool open_ = true;
};

}  // namespace magesim

#endif  // MAGESIM_PAGING_STAGE_H_
