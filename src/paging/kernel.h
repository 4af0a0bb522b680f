// The far-memory paging kernel: owns the page table, allocators, accounting,
// and eviction machinery for one application address space, and exposes the
// two paths of Fig. 2: TryFastAccess and Access (FP) for application
// threads, and evictor tasks (EP) spawned by Start().
#ifndef MAGESIM_PAGING_KERNEL_H_
#define MAGESIM_PAGING_KERNEL_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <vector>

#include "src/accounting/accounting.h"
#include "src/hw/ipi.h"
#include "src/hw/rdma.h"
#include "src/mem/multilayer_allocator.h"
#include "src/mem/page_table.h"
#include "src/mem/percpu_cache.h"
#include "src/mem/swap_allocator.h"
#include "src/mem/vma.h"
#include "src/paging/config.h"
#include "src/paging/stage.h"
#include "src/sim/stats.h"
#include "src/spans/spans.h"

namespace magesim {

class Prefetcher;
class ResilienceManager;
class TenancyManager;
enum class RemoteOpStatus : uint8_t;

struct KernelStats {
  uint64_t faults = 0;           // major faults actually serviced
  uint64_t fast_hits = 0;        // present-PTE accesses
  uint64_t dedup_waits = 0;      // faults coalesced onto an in-flight fault
  uint64_t sync_evictions = 0;   // inline evictions run by faulting threads
  uint64_t free_page_waits = 0;  // MAGE-style waits for the EP to free pages
  uint64_t evicted_pages = 0;
  uint64_t eviction_batches = 0;
  uint64_t clean_reclaims = 0;   // evictions that skipped the RDMA write
  uint64_t prefetched_pages = 0;
  uint64_t prefetch_hits = 0;    // fast hits on previously prefetched pages
  uint64_t pages_poisoned = 0;   // demand reads that exhausted their retries
  uint64_t prefetches_abandoned = 0;  // speculative reads unwound on failure

  Histogram fault_latency;       // end-to-end major-fault latency
  Histogram sync_evict_latency;
  StageTotals fault_stages{};    // exact per-stage totals of faulting threads
  SimTime free_wait_time_total = 0;
};

class Kernel {
 public:
  // `tenancy` (optional, not owned) attaches the multi-tenant memory control
  // groups: accounting becomes per-tenant, every Map/Unmap charges/uncharges
  // the owning cgroup, and victim selection turns QoS-aware.
  Kernel(const KernelConfig& config, Topology& topo, TlbShootdownManager& tlb, RdmaNic& nic,
         uint64_t local_pages, uint64_t wss_pages, TenancyManager* tenancy = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Pre-faults resident pages (zero simulated cost, setup only): maps the
  // first `resident` pages of the working set and registers them with
  // accounting. Remote copies of all pages are marked valid, modeling a
  // warmed-up steady state.
  void Prepopulate(uint64_t resident_pages);

  // Spawns evictor threads and (if configured) the feedback controller.
  // Evictor cores are assigned from the top of the core range, after
  // `num_app_cores` application cores.
  void Start(int num_app_cores);

  // --- Fault-in path ---
  // Fast path: if the page is present, sets accessed/dirty bits and returns
  // true. No simulated time passes.
  bool TryFastAccess(uint64_t vpn, bool write);

  // Slow path: an application thread's touch of `vpn` that missed the fast
  // path. Elapses `compute_ns` of the thread's pending compute, then takes
  // major faults until the access hits a present PTE (a page evicted
  // between its mapping and the re-check faults again). The common-case
  // fault runs in this one coroutine frame; sub-tasks remain only on slow
  // paths (docs/INTERNALS.md §1, "Frame discipline").
  Task<> Access(CoreId core, uint64_t vpn, bool write, SimTime compute_ns = 0);

  // Instant page reclaim with zero simulated cost: used by microbenchmarks to
  // emulate pre-evicted pages (madvise_pageout before the measurement starts)
  // so the fault path can be measured in isolation (§3.2 "fault-in only").
  void InstantReclaim(uint64_t vpn);

  // --- Eviction machinery (shared by evictor threads and sync eviction) ---
  // Runs one sequential eviction batch: isolate victims, unmap, allocate
  // remote space, shootdown, write dirty pages, reclaim. Returns pages freed.
  // Sync eviction passes the fault totals its stages add to (null for the
  // background evictors) and `parent`, the faulting op's span its batch span
  // nests under; default = a detached batch root.
  Task<size_t> EvictBatchSequential(int evictor_id, CoreId core, size_t batch,
                                    StageTotals* fault_stages = nullptr,
                                    SpanHandle parent = {});

  // Evictor main loops (implemented in evictor.cc / pipelined_evictor.cc).
  Task<> SequentialEvictorMain(int evictor_id, CoreId core);
  Task<> PipelinedEvictorMain(int evictor_id, CoreId core);
  Task<> FeedbackControllerMain();
  // Per-tenant fault/eviction balance controller (tenancy only): squeezes the
  // effective soft limit of tenants faulting far beyond their weighted share.
  Task<> TenantBalanceControllerMain();
  // Periodic TLB reconciliation for lazy_tlb mode (scheduler-tick flushes).
  Task<> LazyTlbTickerMain();

  // --- Introspection ---
  const KernelConfig& config() const { return config_; }
  const KernelStats& stats() const { return stats_; }
  KernelStats& mutable_stats() { return stats_; }
  uint64_t free_pages() const;
  uint64_t wss_pages() const { return wss_pages_; }
  uint64_t local_pages() const { return local_pages_; }
  PageTable& page_table() { return *pt_; }
  PageAccounting& accounting() { return *accounting_; }
  PageAllocator& allocator() { return *allocator_; }
  BuddyAllocator& buddy() { return *buddy_; }
  FramePool& frame_pool() { return *frames_; }
  bool remote_valid(uint64_t vpn) const { return remote_valid_[vpn]; }
  Topology& topology() { return topo_; }
  TlbShootdownManager& tlb() { return tlb_; }

  // Attaches the resilient data path (timeouts/retries/breakers, fleet
  // routing). With none attached the two data-path entries post to the NIC.
  void SetResilience(ResilienceManager* r) { resilience_ = r; }
  ResilienceManager* resilience() { return resilience_; }
  // Null unless the machine attached memory control groups.
  TenancyManager* tenancy() { return tenancy_; }
  uint64_t FaultsOnCore(CoreId c) const { return faults_per_core_[static_cast<size_t>(c)]; }

  // Watermark thresholds in pages.
  uint64_t low_wm_pages() const { return low_wm_; }
  uint64_t high_wm_pages() const { return high_wm_; }
  uint64_t min_wm_pages() const { return min_wm_; }

  // Lock-contention report entries for diagnostics.
  LockStats accounting_lock_stats() const { return accounting_->AggregateLockStats(); }

  // Clears measurement counters (stats + per-core fault counts) so harnesses
  // can discard warmup transients.
  void ResetMeasurement() {
    stats_ = KernelStats{};
    std::fill(faults_per_core_.begin(), faults_per_core_.end(), 0);
  }

 private:
  friend class Prefetcher;

  // Allocates one frame, applying the variant's pressure policy (sync
  // eviction vs. waiting for the EP). Its stages add to the fault totals.
  // `op` is the requesting operation's span (alloc/free-wait leaves attach
  // to it; spans are hot-path handle-explicit, never context-stack lookups).
  // Access() runs the loop head and the allocator's fast path in its own
  // frame and enters here only when that first attempt fails
  // (`after_failed_attempt`: resume at the post-failure step) or was
  // skipped for a synchronous eviction.
  Task<PageFrame*> AllocWithPressure(CoreId core, uint64_t vpn, SpanHandle op = {},
                                     bool after_failed_attempt = false);
  // The ideal variant's allocation: free and immediate by definition.
  PageFrame* IdealAlloc();

  // --- Tenancy hooks (all no-ops with no TenancyManager attached) ---
  // Charge/uncharge accompany every Map/Unmap so the per-tenant charge set
  // mirrors the present PTEs at every event boundary.
  void ChargePage(int actor, uint64_t vpn, PageFrame* f);
  // `span` is the uncharging batch's span, registered as the tenant's causal
  // headroom publisher.
  void UnchargePage(int actor, uint64_t vpn, PageFrame* f, SpanHandle span = {});
  // Hard-limit admission + batch-QoS backpressure, run by the fault path
  // after fault dedup and before allocation. `op` is the fault's span.
  Task<> TenantAdmission(CoreId core, uint64_t vpn, SpanHandle op = {});
  // True while any tenant has blocked faulters or is inside its watermark
  // band: keeps evictors running above the global high watermark.
  bool TenancyEvictionPressure() const;
  bool TenancyHardWaiters() const;

  // One inline (synchronous) eviction from the fault path; the batch span
  // nests under `op` (the faulting operation).
  Task<> SyncEvict(CoreId core, SpanHandle op = {});

  // --- The remote data path: the kernel's only two entries to far memory,
  // and the only kernel code that knows which path serves the machine (the
  // bare NIC, or the resilience layer on a single node or a fleet). ---

  // A batch writeback (EP4) as an evictor holds it, whichever path serves
  // it; awaiting it finishes the batch's writes. Empty when no victim needed
  // a write.
  class PendingWrite {
   public:
    PendingWrite() = default;
    // Writes in flight: `done` fires when they finish. `leaf_parent` gets
    // the awaiting stage's rdma-write leaf (the direct path; the resilient
    // path's ops emit their own leaves).
    PendingWrite(std::shared_ptr<RdmaCompletion> done, SpanHandle leaf_parent, int32_t actor)
        : done_(std::move(done)), leaf_parent_(leaf_parent), actor_(actor) {}
    // A resilient batch not yet started: it runs inline when awaited.
    explicit PendingWrite(Task<> write) : write_(std::move(write)) {}

    explicit operator bool() const { return done_ != nullptr || write_.valid(); }

    auto operator co_await() {
      struct Awaiter {
        PendingWrite& w;
        SimTime t0 = Engine::current().now();
        bool await_ready() const { return !w || (w.done_ != nullptr && w.done_->done()); }
        std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
          if (w.write_.valid()) return w.write_.BeginAwait(cont);
          w.done_->Wait().await_suspend(cont);
          return std::noop_coroutine();
        }
        void await_resume() {
          w.write_.RethrowIfException();
          SpanLeafUnder(w.leaf_parent_, SpanKind::kRdmaWrite, t0, Engine::current().now(),
                        w.actor_, kTraceNoPage);
        }
      };
      return Awaiter{*this};
    }

   private:
    std::shared_ptr<RdmaCompletion> done_;
    Task<> write_;
    SpanHandle leaf_parent_{};
    int32_t actor_ = 0;
  };

  // A read as ReadRemote() returns it; awaiting it performs the read and
  // yields its status. The direct path posts one NIC read when awaited and
  // waits on its completion with no coroutine frame of its own, emitting
  // the rdma-read leaf under `op`; the resilient path runs its read task.
  class [[nodiscard]] RemoteRead {
   public:
    RemoteRead(RdmaNic& nic, CoreId core, uint64_t vpn, SpanHandle op)
        : nic_(&nic), op_(op), vpn_(vpn), core_(core) {}
    explicit RemoteRead(Task<RemoteOpStatus> read) : read_(std::move(read)) {}

    bool await_ready();
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont);
    RemoteOpStatus await_resume();

   private:
    Task<RemoteOpStatus> read_;  // the resilient path
    RdmaNic* nic_ = nullptr;     // the direct path
    std::shared_ptr<RdmaCompletion> done_;
    SpanHandle op_{};
    uint64_t vpn_ = 0;
    SimTime t0_ = 0;
    CoreId core_ = 0;
  };

  // The read entry (FP2 and read-ahead): reads `vpn` from far memory into
  // the frame it is about to map. `op` gets the read's span leaves. A
  // `demand` read that exhausts its retries poisons the page; a speculative
  // one reports kAbandoned and the caller unwinds.
  RemoteRead ReadRemote(CoreId core, uint64_t vpn, bool demand, SpanHandle op);

  // The writeback entry (EP4): marks every victim's remote copy valid and
  // writes back those whose copy must be (re)written — dirty, stale, or on a
  // fleet left without a live replica (the rest count as clean reclaims).
  // The direct path posts the writes at once. The resilient path runs them
  // inline when the result is awaited, or, with `overlap` (the pipelined
  // evictor, which awaits a stage later), in a task of their own. `batch` is
  // the owning batch's span.
  PendingWrite Writeback(int evictor_id, const std::vector<PageFrame*>& victims,
                         SpanHandle batch, bool overlap);

  // The read/write channel is degraded (an open breaker); always false on
  // the direct path.
  bool ReadDegraded() const;
  bool WriteDegraded() const;

  // Batch state for the pipelined evictor.
  struct EvictionBatch {
    std::vector<PageFrame*> victims;
    std::shared_ptr<ShootdownOp> shootdown;
    PendingWrite write;  // set once the writeback is posted
    // Detached batch span: the batch outlives any single co_await chain, so
    // its span is closed explicitly when the frames are reclaimed (stage 3).
    SpanHandle span;
  };

  // Wakes sleeping evictors when free pages dip below the low watermark.
  void MaybeWakeEvictors();

  // Ideal-system instant eviction: recycles the oldest resident page with
  // zero software cost.
  void IdealReclaimOne();

  // Unmaps victims, assigns remote slots. Returns unmapped frames via `out`.
  // `bspan` is the owning batch's span (accounting/unmap leaves attach to it).
  Task<size_t> PrepareVictims(int evictor_id, CoreId core, size_t batch,
                              std::vector<PageFrame*>* out, StageTotals* fault_stages = nullptr,
                              SpanHandle bspan = {});

  KernelConfig config_;
  Topology& topo_;
  TlbShootdownManager& tlb_;
  RdmaNic& nic_;
  uint64_t local_pages_;
  uint64_t wss_pages_;
  uint64_t low_wm_, high_wm_, min_wm_;

  std::unique_ptr<FramePool> frames_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<PageTable> pt_;
  std::unique_ptr<PageAccounting> accounting_;
  std::unique_ptr<VmaResolver> vma_;
  std::unique_ptr<SwapAllocator> swap_;  // null when direct-mapped
  DirectMapping direct_map_;
  std::unique_ptr<Prefetcher> prefetcher_;
  ResilienceManager* resilience_ = nullptr;  // owned by FarMemoryMachine
  TenancyManager* tenancy_ = nullptr;        // owned by FarMemoryMachine

  // Remote copy validity per vpn (clean reclaim optimization).
  std::vector<bool> remote_valid_;
  // Prefetched-but-not-yet-touched marker (prefetch hit stats).
  std::vector<bool> prefetched_;

  // Free-page pressure plumbing.
  SimEvent evictor_wake_{"evictor-wake"};
  SimEvent free_pages_available_{"free-pages"};
  bool FaultersWaitingForPages() const { return free_pages_available_.num_waiters() > 0; }

 public:
  // Debug introspection for harnesses/tests.
  size_t DebugFreeWaiters() const { return free_pages_available_.num_waiters(); }
  size_t DebugParkedEvictors() const { return evictor_wake_.num_waiters(); }
  uint64_t DebugPendingReclaims() const { return pending_reclaims_; }

 private:
  SimMutex rdma_stack_lock_{"rdma-stack"};
  SimMutex mm_locks_{"mm-locks"};
  int active_evictors_;  // feedback-controlled (<= num_evictors)
  bool started_ = false;

  // Pages isolated by evictors but not yet returned to the allocator;
  // counted into the pressure check so deep pipelines do not over-evict.
  uint64_t pending_reclaims_ = 0;

  // Lazy-TLB epoch plumbing: waiting on the event resumes at the next tick,
  // by which point every core has flushed.
  SimEvent lazy_epoch_{"lazy-epoch"};
  uint64_t lazy_epochs_ = 0;

  // Ideal-variant FIFO of resident vpns.
  std::deque<uint64_t> ideal_fifo_;

  KernelStats stats_;
  std::vector<uint64_t> faults_per_core_;
};

}  // namespace magesim

#endif  // MAGESIM_PAGING_KERNEL_H_
