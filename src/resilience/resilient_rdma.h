// The resilient far-memory data path: per-op deadlines, bounded retries with
// exponential backoff, a circuit breaker per RDMA channel, and graceful
// degradation hooks for the paging kernel (eviction backpressure, prefetch
// throttling, poison-or-fail terminal policy). On a memory-server fleet it
// also routes every page by its remote slot (replica choice, fan-out writes,
// per-server breakers). The machine attaches one when it runs a fault plan or
// a fleet; the kernel's two data-path entries (Kernel::ReadRemote and
// Kernel::Writeback) then route through it, and otherwise post to the bare
// NIC.
#ifndef MAGESIM_RESILIENCE_RESILIENT_RDMA_H_
#define MAGESIM_RESILIENCE_RESILIENT_RDMA_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/hw/rdma.h"
#include "src/resilience/retry.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/spans/spans.h"

namespace magesim {

// What to do when a demand read exhausts its retries.
enum class TerminalPolicy : uint8_t {
  kPoisonPage,  // mark the page poisoned, count it, keep running
  kFailRun,     // record the failure and request engine shutdown
};

struct ResilienceOptions {
  RetryPolicy retry;
  BreakerPolicy breaker;
  TerminalPolicy terminal = TerminalPolicy::kPoisonPage;
  // Upper bound on one eviction-backpressure pause.
  SimTime backpressure_max_ns = 400 * kMicrosecond;
  // 0 = derive from the machine seed.
  uint64_t seed = 0;
};

enum class RemoteOpStatus : uint8_t {
  kOk,         // data arrived
  kPoisoned,   // retries exhausted; page poisoned, fault completes anyway
  kAbandoned,  // retries exhausted on a speculative op; caller must unwind
};

class ResilienceManager {
 public:
  ResilienceManager(RdmaNic& nic, const ResilienceOptions& opt);

  // Routes the data path through a memory-server fleet: reads resolve their
  // swap slot to the nearest live replica (failing over, degraded, to any
  // survivor), writebacks fan out to every live desired replica, and the
  // circuit-breaker state becomes per-server (channel ids 2n / 2n+1). With
  // no fleet attached every path below is byte-identical to before.
  void SetFleet(FleetManager* fleet);
  FleetManager* fleet() const { return fleet_; }

  // One remote page read on the fault path. Retries under the read breaker;
  // on exhaustion applies the terminal policy (`allow_poison` = demand fault)
  // or reports kAbandoned (speculative prefetch: caller unwinds the frame).
  // `op` is the requesting operation's span; the per-attempt rdma/retry/
  // backoff/breaker leaves attach to it. With a fleet attached, `slot` (the
  // page's PageTable::RemoteSlot) selects the serving replica.
  Task<RemoteOpStatus> ReadPage(int core, uint64_t vpn, uint64_t slot, bool allow_poison,
                                SpanHandle op);

  // One batch writeback of `slots`, the remote slots of the victims that need
  // a write. Single node: the writes are posted back-to-back (keeping the
  // channel as full as the direct path), then awaited in FIFO order with
  // per-op deadlines; failed ops are retried individually. Fleet: every slot
  // is written to each live desired replica and the acknowledged replica set
  // committed to the fleet table. Pages lost for good are counted and traced
  // (on a fleet, slots left with zero live copies); their frames are still
  // freed, so eviction never deadlocks. `op` is the owning batch's span.
  Task<> Write(int evictor_id, std::vector<uint64_t> slots, SpanHandle op);

  // Write run as its own task, for the pipelined evictor to overlap with
  // its next batch; the returned completion fires when the batch is done.
  // The per-op leaves land under `batch_span`, which the evictor closes only
  // after the completion fires.
  std::shared_ptr<RdmaCompletion> SpawnWrite(int evictor_id, std::vector<uint64_t> slots,
                                             SpanHandle batch_span);

  // True when a clean page in `slot` must be written back anyway: on a fleet,
  // every replica it had has died, so the resident copy is the last one and
  // the write restores the desired replica set.
  bool NeedsRewrite(uint64_t slot) const {
    return fleet_ != nullptr && !fleet_->HasLiveCopy(slot);
  }

  bool read_degraded() const;
  bool write_degraded() const;

  // Bounded pause for an evictor while the write channel is degraded: wait
  // out (most of) the breaker cool-down once, then proceed — the next
  // writeback acts as the half-open probe.
  Task<> EvictionBackpressure(int evictor_id);

  // Bookkeeping for a prefetch the kernel suppressed because the read
  // channel is degraded.
  void NotePrefetchThrottle(int core, uint64_t vpn);

  bool run_failed() const { return run_failed_; }
  const std::string& failure_reason() const { return failure_reason_; }

  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t reads_failed() const { return reads_failed_; }
  uint64_t pages_poisoned() const { return pages_poisoned_; }
  uint64_t writebacks_lost() const { return writebacks_lost_; }
  uint64_t backpressure_waits() const { return backpressure_waits_; }
  uint64_t prefetch_throttles() const { return prefetch_throttles_; }
  const Histogram& backoff_ns() const { return backoff_ns_; }
  const Histogram& attempts_per_op() const { return attempts_per_op_; }
  const CircuitBreaker& read_breaker() const { return read_breaker_; }
  const CircuitBreaker& write_breaker() const { return write_breaker_; }
  // Breaker opens across every channel (legacy pair + per-server pairs).
  uint64_t breaker_opens_total() const;
  const CircuitBreaker& node_read_breaker(int node) const {
    return node_read_breakers_[static_cast<size_t>(node)];
  }
  const CircuitBreaker& node_write_breaker(int node) const {
    return node_write_breakers_[static_cast<size_t>(node)];
  }

 private:
  enum class OpOutcome : uint8_t { kOk, kError, kTimeout };

  struct OpWait {
    SimEvent ev;
  };

  // Waits for `c` until it is overdue by the policy grace. Uses the
  // completion's scheduled time, so queueing delay alone never trips it; a
  // lost completion always does.
  Task<OpOutcome> AwaitWithDeadline(std::shared_ptr<RdmaCompletion> c, int actor,
                                    uint64_t vpn);
  static Task<> CompletionWatcher(std::shared_ptr<RdmaCompletion> c,
                                  std::shared_ptr<OpWait> w);
  static Task<> DeadlineWatcher(SimTime delay, std::shared_ptr<OpWait> w);

  // Full retry loop for one op posted on `nic` under breaker `br`; true on
  // success. `budget` = extra attempts allowed after the first. Leaves
  // attach to `op`; `span_channel` labels breaker causality (0 read, 1
  // write — per-server breakers aggregate onto the channel pair).
  Task<bool> OneOpOn(RdmaNic& nic, CircuitBreaker& br, int span_channel,
                     bool is_write, int actor, uint64_t vpn, int budget,
                     SpanHandle op);
  Task<bool> OneOp(bool is_write, int actor, uint64_t vpn, int budget, SpanHandle op);
  Task<RemoteOpStatus> FleetReadPage(int core, uint64_t vpn, uint64_t slot,
                                     bool allow_poison, SpanHandle op);
  // Write's single-node and fleet halves.
  Task<> WritePages(int evictor_id, size_t n, SpanHandle op);
  Task<> WriteSlots(int evictor_id, std::vector<uint64_t> slots, SpanHandle op);
  Task<> TicketMain(int evictor_id, std::vector<uint64_t> slots,
                    std::shared_ptr<RdmaCompletion> done, SpanHandle batch_span);
  void FailRun(const char* why);
  CircuitBreaker& NodeBreaker(int node, bool is_write) {
    auto& v = is_write ? node_write_breakers_ : node_read_breakers_;
    return v[static_cast<size_t>(node)];
  }

  RdmaNic& nic_;
  ResilienceOptions opt_;
  Rng rng_;
  CircuitBreaker read_breaker_;
  CircuitBreaker write_breaker_;
  FleetManager* fleet_ = nullptr;
  // Per-server breaker pairs (fleet mode only; deque — breakers don't move).
  std::deque<CircuitBreaker> node_read_breakers_;
  std::deque<CircuitBreaker> node_write_breakers_;

  bool run_failed_ = false;
  std::string failure_reason_;

  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t reads_failed_ = 0;
  uint64_t pages_poisoned_ = 0;
  uint64_t writebacks_lost_ = 0;
  uint64_t backpressure_waits_ = 0;
  uint64_t prefetch_throttles_ = 0;
  Histogram backoff_ns_;
  Histogram attempts_per_op_;
};

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_RESILIENT_RDMA_H_
