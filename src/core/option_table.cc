#include "src/core/option_table.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/tenancy/tenant_spec.h"

namespace magesim {
namespace {

using Options = FarMemoryMachine::Options;
using Text = std::string_view;
using Err = std::string*;

bool SetSwitch(Text t, bool* field, Err err) {
  if (t != "0" && t != "1") {
    *err = "expected 0 or 1, got '" + std::string(t) + "'";
    return false;
  }
  *field = t == "1";
  return true;
}

template <typename T>
bool SetInt(Text t, int64_t lo, int64_t hi, T* field, Err err) {
  int64_t v;
  if (!ParseIntValue(t, lo, hi, &v, err)) return false;
  *field = static_cast<T>(v);
  return true;
}

bool SetMicros(Text t, int64_t lo, SimTime* field, Err err) {
  int64_t us;
  if (!ParseIntValue(t, lo, INT64_MAX / kMicrosecond, &us, err)) return false;
  *field = us * kMicrosecond;
  return true;
}

bool SetPositive(Text t, double* field, Err err) {
  double v = 0;
  auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc() || p != t.data() + t.size() || !std::isfinite(v) || v <= 0) {
    *err = "expected a positive number, got '" + std::string(t) + "'";
    return false;
  }
  *field = v;
  return true;
}

// Setting any metrics or spans field enables that subsystem.
Options::MetricsOptions& Metrics(Options* o) {
  o->metrics.enabled = true;
  return o->metrics;
}
Options::SpansOptions& Spans(Options* o) {
  o->spans.enabled = true;
  return o->spans;
}

constexpr OptionRow kRows[] = {
    {"seed", nullptr, "N", "simulation seed (default 1)",
     [](Text t, Options* o, Err e) { return SetInt(t, 0, INT64_MAX, &o->seed, e); }},
    {"tenant", "MAGESIM_TENANCY", "spec",
     "memory control groups, ';'-separated or one flag each: "
     "name:weight:limit[:soft]:qos=workload[/threads][,k=v...] (default none)",
     [](Text t, Options* o, Err e) {
       TenancyOptions tenancy;
       bool ok = ParseTenancyList(std::string(t), &tenancy, e);
       if (ok) o->tenancy = std::move(tenancy);
       return ok;
     }},
    {"fleet-nodes", "MAGESIM_FLEET_NODES", "N", "memory servers, 1..16 (default 1)",
     [](Text t, Options* o, Err e) { return SetInt(t, 1, 16, &o->fleet.num_nodes, e); }},
    {"fleet-replicas", "MAGESIM_FLEET_REPLICAS", "K", "replicas per slot, 1..8 (default 2)",
     [](Text t, Options* o, Err e) {
       return SetInt(t, 1, kMaxReplicas, &o->fleet.replication, e);
     }},
    {"fleet-rebuild-gbps", "MAGESIM_FLEET_REBUILD_GBPS", "G", "rebuild pacing (default 10)",
     [](Text t, Options* o, Err e) { return SetPositive(t, &o->fleet.rebuild_gbps, e); }},
    {"fault-plan", "MAGESIM_FAULT_PLAN", "spec|@file",
     "fault injection plan, e.g. \"brownout@2ms-6ms:bw=0.2;crash@10ms-12ms\" (default none)",
     [](Text t, Options* o, Err) { o->fault_plan = t; return true; }},
    {"terminal", nullptr, "poison|fail", "when a demand read exhausts retries (default poison)",
     [](Text t, Options* o, Err e) {
       if (t != "poison" && t != "fail") {
         *e = "expected poison or fail, got '" + std::string(t) + "'";
         return false;
       }
       o->resilience.terminal = t == "fail" ? TerminalPolicy::kFailRun
                                            : TerminalPolicy::kPoisonPage;
       return true;
     }},
    {"check-interval", "MAGESIM_CHECK_INTERVAL_US", "us",
     "invariant check every N sim us and after the drain (0 = after the drain only)",
     [](Text t, Options* o, Err e) {
       o->check_final = true;
       return SetMicros(t, 0, &o->check_interval, e);
     }},
    {"check", nullptr, nullptr, "one invariant check after the simulation drains",
     [](Text t, Options* o, Err e) { return SetSwitch(t, &o->check_final, e); }},
    {"analysis", "MAGESIM_ANALYSIS", nullptr, "lock-discipline analyzer (default off)",
     [](Text t, Options* o, Err e) { return SetSwitch(t, &o->analysis.enabled, e); }},
    {"metrics-out", "MAGESIM_METRICS_OUT", "path", "write the JSON run-report",
     [](Text t, Options* o, Err) { Metrics(o).report_path = t; return true; }},
    {"metrics-csv", "MAGESIM_METRICS_CSV", "path", "write the sampler time series as CSV",
     [](Text t, Options* o, Err) { Metrics(o).csv_path = t; return true; }},
    {"metrics-prom", "MAGESIM_METRICS_PROM", "path", "write a Prometheus text exposition",
     [](Text t, Options* o, Err) { Metrics(o).prom_path = t; return true; }},
    {"sample-interval-us", "MAGESIM_METRICS_SAMPLE_INTERVAL_US", "N",
     "metrics sampling period in sim us (default 1000)",
     [](Text t, Options* o, Err e) { return SetMicros(t, 1, &Metrics(o).sample_interval, e); }},
    {"progress", "MAGESIM_METRICS_PROGRESS", nullptr, "per-sample progress line on stderr",
     [](Text t, Options* o, Err e) { return SetSwitch(t, &Metrics(o).progress, e); }},
    {"spans", "MAGESIM_SPANS", nullptr, "causal span tracing and tail attribution (default off)",
     [](Text t, Options* o, Err e) { return SetSwitch(t, &o->spans.enabled, e); }},
    {"spans-out", "MAGESIM_SPANS_OUT", "path", "stream span trees as JSONL (tools/span_view.py)",
     [](Text t, Options* o, Err) { Spans(o).out_path = t; return true; }},
    {"spans-top-k", "MAGESIM_SPANS_TOP_K", "N", "slowest exemplars per op kind (default 8)",
     [](Text t, Options* o, Err e) { return SetInt(t, 0, INT_MAX, &Spans(o).top_k, e); }},
    {"spans-sample", "MAGESIM_SPANS_SAMPLE", "N", "trace every Nth root op, 1 = all (default 32)",
     [](Text t, Options* o, Err e) { return SetInt(t, 1, INT_MAX, &Spans(o).sample_every, e); }},
};

}  // namespace

std::span<const OptionRow> OptionTable() { return kRows; }

const OptionRow* FindOption(std::string_view flag) {
  for (const OptionRow& row : kRows) {
    if (flag == row.flag) return &row;
  }
  return nullptr;
}

bool ApplyOption(std::string_view flag, std::string_view value, FarMemoryMachine::Options* opt,
                 std::string* err) {
  const OptionRow* row = FindOption(flag);
  std::string why = "unknown option";
  if (row != nullptr && row->set(value, opt, &why)) return true;
  *err = "bad --" + std::string(flag) + ": " + why;
  return false;
}

void ApplyEnvOverrides(FarMemoryMachine::Options* opt) {
  for (const OptionRow& row : kRows) {
    const char* value = row.env != nullptr ? std::getenv(row.env) : nullptr;
    std::string why;
    if (value != nullptr && !row.set(value, opt, &why)) {
      throw std::invalid_argument("bad " + std::string(row.env) + ": " + why);
    }
  }
}

std::string OptionUsage(std::span<const OptionRow> rows) {
  std::string out;
  for (const OptionRow& row : rows) {
    std::string head = "  --" + std::string(row.flag);
    if (row.value != nullptr) head += "=" + std::string(row.value);
    if (row.env != nullptr) head.append(head.size() < 30 ? 32 - head.size() : 2, ' ') += row.env;
    out += head + "\n      " + row.doc + "\n";
  }
  return out;
}

}  // namespace magesim
