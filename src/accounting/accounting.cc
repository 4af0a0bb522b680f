#include "src/accounting/accounting.h"

#include "src/sim/engine.h"

namespace magesim {

Task<> PageAccounting::Insert(CoreId core, PageFrame* f) {
  SimTime start = Engine::current().now();
  InsertPlan p = PlanInsert(core, f);
  auto g = co_await p.lock->Scoped();
  co_await Delay{p.cs_ns};
  CommitInsert(core, f, start);
}

}  // namespace magesim
