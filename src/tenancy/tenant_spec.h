// Tenant specifications: the user-facing description of a multi-tenant run.
//
// A tenant spec names one memory control group and the workload that runs
// inside it:
//
//   name:weight:limit[:soft]:qos=workload[/threads][,key=val...]
//
//   name    cgroup name (unique per run)
//   weight  eviction-share weight (positive integer; victim selection is
//           weighted round-robin proportional to this)
//   limit   hard local-memory limit as a fraction of local DRAM pages
//           ("0.4") or a percentage ("40"); 0 = no hard limit
//   soft    optional soft limit (same units); defaults to 0.9 * limit
//   qos     latency | normal | batch
//   workload  a name from the workload registry, optionally with a thread
//             count ("gups/4") and workload options ("pages=4096,passes=8")
//
// Example: two tenants, a protected scanner and a thrashing GUPS neighbor:
//
//   lat:4:0.4:latency=seqscan/2,pages=4096,passes=64;bg:1:0.8:batch=gups/2
//
// Specs arrive via Options::tenancy, the MAGESIM_TENANCY environment
// variable (';'-separated list), or repeated --tenant CLI flags.
#ifndef MAGESIM_TENANCY_TENANT_SPEC_H_
#define MAGESIM_TENANCY_TENANT_SPEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace magesim {

enum class QosClass : uint8_t {
  kLatency,  // evicted last, prefetcher priority
  kNormal,
  kBatch,    // absorbs eviction backpressure first
};

const char* QosClassName(QosClass q);
bool ParseQosClass(const std::string& s, QosClass* out);

struct TenantSpec {
  std::string name;
  uint32_t weight = 1;
  double hard_frac = 0;  // fraction of local DRAM pages; 0 = unlimited
  double soft_frac = 0;  // 0 = derive as 0.9 * hard_frac
  QosClass qos = QosClass::kNormal;

  // Workload to run inside the cgroup (a registry name).
  std::string workload;
  int threads = 0;  // 0 = workload default
  std::map<std::string, std::string> workload_opts;

  // Resolved placement, filled by MultiTenantWorkload::Build: the tenant owns
  // vpns [vpn_base, vpn_base + vpn_pages) and global thread ids
  // [thread_begin, thread_end).
  uint64_t vpn_base = 0;
  uint64_t vpn_pages = 0;
  int thread_begin = 0;
  int thread_end = 0;

  bool resolved() const { return vpn_pages > 0; }
};

struct TenancyOptions {
  bool enabled = false;
  std::vector<TenantSpec> tenants;
};

// Parses one "name:weight:limit[:soft]:qos=workload[/threads][,k=v...]"
// spec. Returns false (with a message in *err) on malformed input.
bool ParseTenantSpec(const std::string& s, TenantSpec* out, std::string* err);

// Strict decimal integer in [lo, hi]: no whitespace, '+' or trailing junk.
// The one integer parser behind option values and tenant specs.
bool ParseIntValue(std::string_view text, int64_t lo, int64_t hi, int64_t* out,
                   std::string* err);

// Parses "key=val,key=val" (the workload-option grammar of tenant specs and
// magesim_cli --workload-opts) into *out; false on an entry without a key or
// '=' (including an empty list).
bool ParseWorkloadOpts(const std::string& s, std::map<std::string, std::string>* out);

// Parses a ';'-separated spec list (the MAGESIM_TENANCY format) into
// `out->tenants` and sets `out->enabled`. Validates name uniqueness.
bool ParseTenancyList(const std::string& s, TenancyOptions* out, std::string* err);

}  // namespace magesim

#endif  // MAGESIM_TENANCY_TENANT_SPEC_H_
