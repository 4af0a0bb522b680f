// Kernel fault-in path (FP of Fig. 2); each stage is one StageScope
// (src/paging/stage.h) feeding the profiler, spans and the fault totals.
#include <cassert>

#include "src/paging/kernel.h"
#include "src/paging/prefetcher.h"
#include "src/paging/stage.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"
#include "src/spans/spans.h"
#include "src/tenancy/memcg.h"
#include "src/trace/trace.h"

namespace magesim {

MAGESIM_HOT_PATH Task<> Kernel::Access(CoreId core, uint64_t vpn, bool write,
                                       SimTime compute_ns) {
  co_await Delay{compute_ns};
  Engine& eng = Engine::current();
  const MachineParams& hw = topo_.params();
  StageTotals* totals = &stats_.fault_stages;
  assert(vpn < wss_pages_);

  // One major fault per iteration. A fault that ends without mapping the
  // page for this thread (a minor fault, a dedup wait) re-checks too.
  while (!TryFastAccess(vpn, write)) {
    SimTime t0 = eng.now();
    ++faults_per_core_[static_cast<size_t>(core)];

    if (config_.variant == Variant::kIdeal) {
      // Zero software overhead: only the data movement cost (§3.1).
      if (!pt_->TryBeginFault(vpn)) {
        TraceEmit(TraceEventType::kFaultDedup, core, vpn);
        co_await pt_->WaitForFault(vpn);
        stats_.fault_latency.Record(eng.now() - t0);
        continue;
      }
      ++stats_.faults;
      TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
      PageFrame* f = IdealAlloc();
      assert(f != nullptr);
      TraceEmit(TraceEventType::kFrameAlloc, core, vpn, f->pfn);
      {
        StageScope stage(SpanKind::kRdmaRead, core, vpn, {}, totals);
        if (co_await ReadRemote(core, vpn, /*demand=*/true, {}) == RemoteOpStatus::kPoisoned) {
          ++stats_.pages_poisoned;
        }
      }
      pt_->Map(vpn, f);
      ChargePage(core, vpn, f);
      TraceEmit(TraceEventType::kPageMap, core, vpn, f->pfn);
      if (write) {
        pt_->At(vpn).dirty = true;
        remote_valid_[vpn] = false;
      }
      // magesim-lint: allow(hotpath-alloc): ideal variant models zero software
      // overhead, so host-side deque growth is explicitly outside the model.
      ideal_fifo_.push_back(vpn);
      pt_->EndFault(vpn);
      stats_.fault_latency.Record(eng.now() - t0);
      TraceEmit(TraceEventType::kFaultEnd, core, vpn, f->pfn,
                static_cast<uint64_t>(eng.now() - t0));
      continue;
    }

    // --- Trap entry and dispatch. The stage closes once the fault knows
    // which span (if any) its leaf belongs to; no simulated time passes
    // meanwhile. ---
    StageScope entry(SpanKind::kEntry, core, vpn, {}, totals);
    co_await Delay{config_.fault_entry_ns + hw.page_table_walk_ns};

    // --- VMA resolution (variant-dependent locking) ---
    const Vma* v = nullptr;
    if (!vma_->TryFind(vpn, &v)) v = co_await vma_->Find(vpn);
    assert(v != nullptr);
    (void)v;  // only consulted by the assert in NDEBUG builds

    Pte& pte = pt_->At(vpn);
    if (pte.present) {
      // Raced with a concurrent fault or prefetch: minor fault.
      pte.accessed = true;
      if (write) {
        pte.dirty = true;
        remote_valid_[vpn] = false;
      }
      continue;
    }
    if (!pt_->TryBeginFault(vpn)) {
      // Fault dedup via the unified page table / swap cache: wait for the
      // in-flight fault instead of issuing a duplicate read.
      ++stats_.dedup_waits;
      TraceEmit(TraceEventType::kFaultDedup, core, vpn);
      SpanHandle droot{};
      SpanCausalPoint inflight{};
      if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
        int tenant = tenancy_ != nullptr ? tenancy_->TenantOf(vpn) : -1;
        droot = st->BeginDetached(SpanKind::kFault, core, vpn, tenant, t0);
        entry.set_parent(droot);
        // Capture the in-flight fault before waiting: it erases its
        // page-span registration when it completes.
        if (st->Sampled(droot)) inflight = st->page_span(vpn);
      }
      entry.End();
      {
        StageScope stage(SpanKind::kDedupWait, core, vpn, droot, totals);
        stage.set_link(inflight);
        co_await pt_->WaitForFault(vpn);
      }
      SpanEndDetached(droot, /*arg=*/1);  // arg 1 marks a dedup-coalesced fault
      stats_.fault_latency.Record(eng.now() - t0);
      continue;
    }
    ++stats_.faults;
    TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
    // The fault span is a detached root: the handle is threaded explicitly
    // through admission, allocation, and the resilient read so the
    // suppressed (sampled-out) case never touches the tracer's context map.
    SpanHandle root{};
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      int tenant = tenancy_ != nullptr ? tenancy_->TenantOf(vpn) : -1;
      root = st->BeginDetached(SpanKind::kFault, core, vpn, tenant, t0);
      entry.set_parent(root);
      if (st->Sampled(root)) st->NotePageSpan(vpn, root);  // dedup'd followers link here
    }
    entry.End();

    // --- Tenancy admission: QoS backpressure + hard-limit gate ---
    if (tenancy_ != nullptr) {
      co_await TenantAdmission(core, vpn, root);
    }

    // --- Serialized mm bookkeeping (page-table lock, rmap, cgroup: Linux) ---
    if (config_.mm_locks_cs_ns > 0) {
      StageScope stage(SpanKind::kMmLocks, core, vpn, root, totals);
      auto g = co_await mm_locks_.Scoped();
      co_await Delay{config_.mm_locks_cs_ns};
    }

    // --- FP1: local page allocation (may wait for / trigger eviction). The
    // first attempt — AllocWithPressure's loop head and the allocator's
    // fast path (PageAllocator::Alloc's pieces) — runs here; a skipped or
    // failed attempt continues in AllocWithPressure. ---
    PageFrame* frame = nullptr;
    bool attempted = !(config_.allow_sync_eviction && free_pages() <= min_wm_);
    if (attempted) {
      StageScope stage(SpanKind::kAlloc, core, vpn, root, totals);
      PageAllocator::AllocAttempt a = allocator_->BeginAlloc(core);
      bool done = false;
      if (a.fast) {
        auto g = co_await SimMutex::ScopedIf(a.lock);
        co_await Delay{a.cost};
        done = allocator_->CommitFast(core, a, &frame);
      }
      if (!done) frame = co_await allocator_->AllocSlow(core, a.start);
    }
    if (frame != nullptr) {
      MaybeWakeEvictors();
    } else {
      frame = co_await AllocWithPressure(core, vpn, root, /*after_failed_attempt=*/attempted);
    }
    assert(frame != nullptr);
    TraceEmit(TraceEventType::kFrameAlloc, core, vpn, frame->pfn);

    // --- FP2: RDMA read of the page. The data path emits the read's leaves
    // (rdma, and on the resilient path retry/backoff/breaker) under the
    // fault span; the stage also spans the host rdma-stack section. ---
    {
      StageScope stage(SpanKind::kRdmaRead, core, vpn, {}, totals);
      if (config_.rdma_stack_cs_ns > 0) {
        auto g = co_await rdma_stack_lock_.Scoped();
        co_await Delay{config_.rdma_stack_cs_ns};
      }
      if (co_await ReadRemote(core, vpn, /*demand=*/true, root) == RemoteOpStatus::kPoisoned) {
        ++stats_.pages_poisoned;
      }
    }

    // --- Swap bookkeeping (slot-based variants free the slot on swap-in),
    // residual OS work, and the mapping install ---
    {
      StageScope stage(SpanKind::kMapInstall, core, vpn, root, totals);
      if (swap_ != nullptr && pte.swap_slot != kNoSwapSlot) {
        co_await swap_->Free(pte.swap_slot);
        pte.swap_slot = kNoSwapSlot;
      }
      // Residual per-fault OS work outside the modeled locks.
      if (config_.fault_extra_ns > 0) {
        co_await Delay{config_.fault_extra_ns};
      }
      co_await Delay{hw.pte_update_ns};
    }
    pt_->Map(vpn, frame);
    ChargePage(core, vpn, frame);
    TraceEmit(TraceEventType::kPageMap, core, vpn, frame->pfn);
    if (write) {
      pte.dirty = true;
      remote_valid_[vpn] = false;
    }

    // --- FP3: page accounting insert (PageAccounting::Insert's pieces) ---
    {
      StageScope stage(SpanKind::kAccounting, core, vpn, root, totals);
      SimTime start = eng.now();
      PageAccounting::InsertPlan p = accounting_->PlanInsert(core, frame);
      auto g = co_await p.lock->Scoped();
      co_await Delay{p.cs_ns};
      accounting_->CommitInsert(core, frame, start);
    }

    pt_->EndFault(vpn);
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr && root) {
      if (st->Sampled(root)) st->ErasePageSpan(vpn);
      st->EndDetached(root);
    }
    stats_.fault_latency.Record(eng.now() - t0);
    TraceEmit(TraceEventType::kFaultEnd, core, vpn, frame->pfn,
              static_cast<uint64_t>(eng.now() - t0));

    if (prefetcher_ != nullptr) {
      prefetcher_->OnFault(core, vpn);
    }
  }
}

}  // namespace magesim
