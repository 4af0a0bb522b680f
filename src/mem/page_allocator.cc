#include "src/mem/page_allocator.h"

#include <cassert>

#include "src/sim/engine.h"

namespace magesim {

Task<PageFrame*> PageAllocator::Alloc(CoreId core) {
  AllocAttempt a = BeginAlloc(core);
  if (a.fast) {
    PageFrame* f = nullptr;
    bool done;
    {
      auto g = co_await SimMutex::ScopedIf(a.lock);
      co_await Delay{a.cost};
      done = CommitFast(core, a, &f);
    }
    if (done) co_return f;
  }
  co_return co_await AllocSlow(core, a.start);
}

Task<PageFrame*> PageAllocator::AllocSlow(CoreId core, SimTime start) {
  assert(false && "this allocator's fast path always completes");
  co_return nullptr;
}

}  // namespace magesim
