// Shared helpers for the figure/table harnesses.
//
// Every harness prints the paper-figure series it regenerates. Scale knobs:
// MAGESIM_SCALE=0.25..4 multiplies working-set/op counts (default 1), so the
// full suite finishes in minutes on one host core while remaining faithful in
// shape. Determinism: all randomness is seeded; same scale => same output.
//
// Every harness applies the MAGESIM_* overrides (ApplyEnvOverrides, directly
// or via RunMachine), so e.g. MAGESIM_CHECK_INTERVAL_US=<us> runs each
// simulation under the invariant checker at that period plus a final check —
// no code changes needed. See docs/INTERNALS.md.
#ifndef MAGESIM_BENCH_BENCH_COMMON_H_
#define MAGESIM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/farmem.h"
#include "src/core/ideal_model.h"
#include "src/core/option_table.h"
#include "src/core/report.h"
#include "src/paging/kernels.h"
#include "src/tenancy/tenant_spec.h"

namespace magesim {

// Exits with status 2 naming the variable when a harness-only MAGESIM_*
// value is malformed (the machine options throw from ApplyEnvOverrides).
[[noreturn]] inline void BadBenchEnv(const char* var, const char* value, const std::string& why) {
  std::fprintf(stderr, "FATAL: bad %s='%s': %s\n", var, value, why.c_str());
  std::exit(2);
}

inline double BenchScale() {
  const char* s = std::getenv("MAGESIM_SCALE");
  if (s == nullptr || *s == '\0') return 1.0;
  double v = 0;
  const char* end = s + std::strlen(s);
  auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end || !(v > 0) || !std::isfinite(v)) {
    BadBenchEnv("MAGESIM_SCALE", s, "expected a positive number");
  }
  return v;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * BenchScale());
}

// Warmup/measure repetition counts for the perf harnesses (bench/perf_*).
// MAGESIM_BENCH_REPS overrides the harness defaults so CI can run short
// smokes while local runs stay statistically meaningful:
//   MAGESIM_BENCH_REPS=M     -> warmup = max(1, M/4), measure = M
//   MAGESIM_BENCH_REPS=W:M   -> warmup = W, measure = M
// The chosen counts (and whether they came from the env) are recorded in
// every BENCH_*.json so a baseline and a smoke run are never silently
// compared at different statistical weight.
struct BenchReps {
  int warmup = 1;
  int measure = 3;
  bool from_env = false;
};

inline BenchReps BenchRepsFromEnv(int default_warmup, int default_measure) {
  BenchReps r{default_warmup, default_measure, false};
  const char* s = std::getenv("MAGESIM_BENCH_REPS");
  if (s == nullptr || *s == '\0') return r;
  std::string_view v(s);
  size_t colon = v.find(':');
  int64_t w = 0;
  int64_t m = 0;
  std::string err;
  bool ok = colon == std::string_view::npos
                ? ParseIntValue(v, 1, INT32_MAX, &m, &err)
                : ParseIntValue(v.substr(0, colon), 0, INT32_MAX, &w, &err) &&
                      ParseIntValue(v.substr(colon + 1), 1, INT32_MAX, &m, &err);
  if (!ok) BadBenchEnv("MAGESIM_BENCH_REPS", s, err + " (want M or W:M)");
  r.measure = static_cast<int>(m);
  r.warmup = colon == std::string_view::npos ? std::max(r.measure / 4, 1) : static_cast<int>(w);
  r.from_env = true;
  return r;
}

// Runs `wl` on a machine built from `opt` with the MAGESIM_* overrides on top.
inline RunResult RunMachine(FarMemoryMachine::Options opt, Workload& wl) {
  ApplyEnvOverrides(&opt);
  return FarMemoryMachine(opt, wl).Run();
}

// Exits with a FATAL line when a run saw invariant violations or aborted.
inline void CheckClean(FarMemoryMachine& m, const RunResult& r, const char* label) {
  if (r.invariant_violations != 0) {
    std::fprintf(stderr, "FATAL: invariant violations in %s run\n%s\n", label,
                 m.checker()->Report().c_str());
    std::exit(1);
  }
  if (r.aborted) {
    std::fprintf(stderr, "FATAL: %s run aborted: %s\n", label, r.abort_reason.c_str());
    std::exit(1);
  }
}

// Ops completed by application threads [begin, end).
inline uint64_t ThreadOps(FarMemoryMachine& m, int begin, int end) {
  uint64_t ops = 0;
  for (int tid = begin; tid < end; ++tid) ops += m.threads()[static_cast<size_t>(tid)]->ops;
  return ops;
}

// Parses a tenancy spec list (exiting on error) and scales each tenant's
// `pages` option by MAGESIM_SCALE.
inline std::vector<TenantSpec> ScaledTenantSpecs(const char* spec) {
  TenancyOptions opts;
  std::string err;
  if (!ParseTenancyList(spec, &opts, &err)) {
    std::fprintf(stderr, "FATAL: bad tenant spec: %s\n", err.c_str());
    std::exit(1);
  }
  for (TenantSpec& s : opts.tenants) {
    if (s.workload_opts.count("pages") != 0) {
      s.workload_opts["pages"] = std::to_string(Scaled(
          std::strtoull(s.workload_opts["pages"].c_str(), nullptr, 10)));
    }
  }
  return opts.tenants;
}

// Offloading sweep used by most application figures (percent far memory).
inline std::vector<int> OffloadSweep() { return {0, 10, 20, 30, 40, 50, 60, 70, 80, 90}; }

}  // namespace magesim

#endif  // MAGESIM_BENCH_BENCH_COMMON_H_
