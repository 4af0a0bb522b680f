// Per-tenant page accounting behind the PageAccounting interface.
//
// Each tenant gets its own instance of the configured replacement policy
// (PartitionedFifo / GlobalLru / S3Fifo / MGLRU); inserts and unlinks route
// by the frame's tenant stamp, so a tenant's pages only ever live on that
// tenant's lists. Victim selection is a deterministic QoS-tiered weighted
// round-robin:
//
//   tier 0: tenants needing eviction (over soft limit / in their watermark
//           band), qos != latency
//   tier 1: tenants needing eviction, qos == latency  (evicted-from last
//           among the over-limit set)
//   tier 2: under-limit batch/normal tenants  (global-pressure fallback:
//           hard limits may not cover the whole pool)
//   tier 3: under-limit latency tenants       (evicted-from last of all)
//
// Within the first non-empty tier, the batch is split by largest-remainder
// weighted quotas; both the remainder distribution and the execution order
// are strict ascending tenant id, and each per-tenant policy scans its lists
// in deterministic page order — so victims at equal recency are ordered by
// (tenant id, page id), never by container iteration order.
#ifndef MAGESIM_TENANCY_TENANT_ACCOUNTING_H_
#define MAGESIM_TENANCY_TENANT_ACCOUNTING_H_

#include <memory>
#include <vector>

#include "src/accounting/accounting.h"
#include "src/analysis/guarded.h"
#include "src/tenancy/memcg.h"

namespace magesim {

class TenantAccounting : public PageAccounting {
 public:
  TenantAccounting(TenancyManager& mgr,
                   std::vector<std::unique_ptr<PageAccounting>> per_tenant);

  InsertPlan PlanInsert(CoreId core, const PageFrame* f) override;
  void CommitInsert(CoreId core, PageFrame* f, SimTime start) override;
  void InsertSetup(CoreId core, PageFrame* f) override;
  Task<size_t> IsolateBatch(int evictor_id, CoreId core, size_t want,
                            std::vector<PageFrame*>* out) override;
  void Unlink(PageFrame* f) override;

  uint64_t tracked_pages() const override;
  LockStats AggregateLockStats() const override;

  PageAccounting& tenant_policy(int t) { return *per_[static_cast<size_t>(t)]; }
  int num_tenants() const { return static_cast<int>(per_.size()); }

 private:
  // One (tenant, pages-to-take) slice of a selection round.
  struct PlanEntry {
    int tenant;
    size_t ask;
  };

  // Eviction-preference tier of tenant `t` (lower = preferred victim).
  int TierOf(int t) const;

  // Builds one selection round under select_lock_: the lowest non-empty
  // tier's members split `need` by largest-remainder weighted quotas, in
  // ascending tenant-id order. `exhausted` marks tenants whose policies
  // could not fill their previous quota this call.
  std::vector<PlanEntry> PlanLocked(size_t need, const std::vector<bool>& exhausted);

  int RouteTenant(const PageFrame* f) const;

  TenancyManager& mgr_;
  std::vector<std::unique_ptr<PageAccounting>> per_;

  // Serializes victim planning across evictors. Held only across the
  // synchronous planning step, released before delegating to per-tenant
  // policies (which take their own list locks and may suspend).
  SimMutex select_lock_{"tenancy-select"};
  // Round counter, only meaningful under select_lock_ (lock-discipline
  // analyzer guard on the shared selection state).
  GuardedBy<uint64_t> plan_rounds_{select_lock_, 0};
};

}  // namespace magesim

#endif  // MAGESIM_TENANCY_TENANT_ACCOUNTING_H_
