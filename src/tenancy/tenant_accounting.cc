#include "src/tenancy/tenant_accounting.h"

#include <algorithm>
#include <cassert>

#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {

TenantAccounting::TenantAccounting(TenancyManager& mgr,
                                   std::vector<std::unique_ptr<PageAccounting>> per_tenant)
    : mgr_(mgr), per_(std::move(per_tenant)) {
  assert(static_cast<int>(per_.size()) == mgr_.num_tenants());
}

int TenantAccounting::RouteTenant(const PageFrame* f) const {
  // Frames are stamped at charge time (Kernel maps before inserting); the
  // vpn lookup is a setup-time / defensive fallback.
  if (f->tenant >= 0 && f->tenant < static_cast<int16_t>(per_.size())) return f->tenant;
  return mgr_.TenantOf(f->vpn);
}

// The tenant's own policy takes the insert; the facade keeps its own
// counters over it.
PageAccounting::InsertPlan TenantAccounting::PlanInsert(CoreId core, const PageFrame* f) {
  return per_[static_cast<size_t>(RouteTenant(f))]->PlanInsert(core, f);
}

void TenantAccounting::CommitInsert(CoreId core, PageFrame* f, SimTime start) {
  per_[static_cast<size_t>(RouteTenant(f))]->CommitInsert(core, f, start);
  CountInsert(start);
}

void TenantAccounting::InsertSetup(CoreId core, PageFrame* f) {
  ++stats_.inserts;
  per_[static_cast<size_t>(RouteTenant(f))]->InsertSetup(core, f);
}

void TenantAccounting::Unlink(PageFrame* f) {
  per_[static_cast<size_t>(RouteTenant(f))]->Unlink(f);
}

int TenantAccounting::TierOf(int t) const {
  const MemCgroup& cg = mgr_.cgroup(t);
  bool latency = cg.qos() == QosClass::kLatency;
  if (cg.NeedsEviction()) return latency ? 1 : 0;
  return latency ? 3 : 2;
}

std::vector<TenantAccounting::PlanEntry> TenantAccounting::PlanLocked(
    size_t need, const std::vector<bool>& exhausted) {
  ++plan_rounds_.Locked("tenancy victim plan");
  // Members of the lowest non-empty tier, ascending tenant id.
  std::vector<int> members;
  int best_tier = 4;
  for (int t = 0; t < num_tenants(); ++t) {
    if (exhausted[static_cast<size_t>(t)]) continue;
    if (per_[static_cast<size_t>(t)]->tracked_pages() == 0) continue;
    int tier = TierOf(t);
    if (tier < best_tier) {
      best_tier = tier;
      members.clear();
    }
    if (tier == best_tier) members.push_back(t);
  }
  std::vector<PlanEntry> plan;
  if (members.empty()) return plan;

  // Largest-remainder weighted split of `need` across the members. Floor
  // quotas first; leftover pages go to members in ascending remainder-rank
  // order with ties broken by the lower tenant id — the explicit
  // (tenant id, page id) tie-break at equal recency.
  uint64_t total_w = 0;
  for (int t : members) total_w += mgr_.cgroup(t).weight();
  std::vector<uint64_t> quota(members.size(), 0);
  std::vector<std::pair<uint64_t, size_t>> rema;  // (-remainder proxy, index)
  uint64_t assigned = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    uint64_t num = static_cast<uint64_t>(need) * mgr_.cgroup(members[i]).weight();
    quota[i] = num / total_w;
    assigned += quota[i];
    // Sort key: larger remainder first; equal remainders by lower tenant id.
    rema.emplace_back(num % total_w, i);
  }
  std::sort(rema.begin(), rema.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return members[a.second] < members[b.second];
  });
  for (size_t k = 0; assigned < need; ++k) {
    ++quota[rema[k % rema.size()].second];
    ++assigned;
  }
  for (size_t i = 0; i < members.size(); ++i) {
    if (quota[i] > 0) plan.push_back(PlanEntry{members[i], static_cast<size_t>(quota[i])});
  }
  return plan;
}

Task<size_t> TenantAccounting::IsolateBatch(int evictor_id, CoreId core, size_t want,
                                            std::vector<PageFrame*>* out) {
  size_t got_total = 0;
  std::vector<bool> exhausted(static_cast<size_t>(num_tenants()), false);
  while (got_total < want) {
    std::vector<PlanEntry> plan;
    {
      // Plan synchronously under the selection lock, then release it before
      // touching per-tenant lists (their own locks may suspend; holding
      // select_lock_ across that await would trip the analyzer — and
      // genuinely serialize the evictors).
      auto g = co_await select_lock_.Scoped();
      plan = PlanLocked(want - got_total, exhausted);
    }
    if (plan.empty()) break;
    bool progress = false;
    for (const PlanEntry& e : plan) {
      if (got_total >= want) break;
      size_t ask = std::min(e.ask, want - got_total);
      size_t got = co_await per_[static_cast<size_t>(e.tenant)]->IsolateBatch(evictor_id, core,
                                                                              ask, out);
      got_total += got;
      if (got > 0) {
        progress = true;
        mgr_.cgroup(e.tenant).NoteEvictSelected(got);
        TraceEmit(TraceEventType::kTenantEvictSelect, evictor_id, kTraceNoPage, kTraceNoFrame,
                  (static_cast<uint64_t>(e.tenant) << 32) | got);
      }
      if (got < ask) exhausted[static_cast<size_t>(e.tenant)] = true;
    }
    if (!progress) break;
  }
  stats_.isolated += got_total;
  co_return got_total;
}

uint64_t TenantAccounting::tracked_pages() const {
  uint64_t n = 0;
  for (const auto& p : per_) n += p->tracked_pages();
  return n;
}

LockStats TenantAccounting::AggregateLockStats() const {
  LockStats agg = select_lock_.stats();
  for (const auto& p : per_) {
    LockStats s = p->AggregateLockStats();
    agg.acquisitions += s.acquisitions;
    agg.contended += s.contended;
    agg.total_wait_ns += s.total_wait_ns;
    agg.max_wait_ns = std::max(agg.max_wait_ns, s.max_wait_ns);
  }
  return agg;
}

}  // namespace magesim
