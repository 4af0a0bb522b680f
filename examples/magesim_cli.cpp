// magesim_cli: run any workload on any system variant from the command line.
//
//   magesim_cli --workload=pagerank --system=magelib --far=50 [--threads=48]
//   magesim_cli --workload=trace --trace-file=prod.trc --system=hermit --far=30
//   magesim_cli --workload=zipf-trace --system=dilos --far=40 --save-trace=out.trc
//   magesim_cli --workload=seqscan --system=magelib --trace=events.jsonl
//               --check-interval=100
//   magesim_cli --tenant='lat:4:0.4:latency=seqscan/2,pages=4096,passes=64'
//               --tenant='bg:1:0.8:batch=gups/2' --system=magelib --far=50
//
// Workloads come from the registry (src/workloads/registry.h); run
// --list-workloads for names, descriptions and per-workload options, and pass
// overrides with --workload-opts=key=val,key=val. "trace" requires
// --trace-file.
//
// Run with no arguments for the flag list, generated from the shared option
// table (src/core/option_table.h); a MAGESIM_* variable overrides its flag.
// Unknown flags, stray arguments and malformed values exit with status 2;
// invariant violations exit with status 1.
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/trace/trace.h"

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace.h"

namespace {

using magesim::OptionRow;

// Flags the CLI consumes itself; every other flag is a machine option from
// the shared table. Their setter column stays null.
constexpr OptionRow kCliFlags[] = {
    {"workload", nullptr, "name", "workload to run (see --list-workloads)"},
    {"system", nullptr, "name", "magelib|magelnx|dilos|hermit|fastswap|ideal (default magelib)"},
    {"far", nullptr, "pct", "percent of the working set in far memory, 0..99 (default 30)"},
    {"threads", nullptr, "N", "application threads, 1..core count (default 24)"},
    {"workload-opts", nullptr, "k=v,...", "per-workload option overrides"},
    {"trace-file", nullptr, "path", "trace to replay; --workload=trace requires it"},
    {"save-trace", nullptr, "path", "save the trace of a trace-backed workload"},
    {"trace", nullptr, "path", "write every simulation event as JSONL"},
    {"trace-chrome", nullptr, "path", "write a chrome://tracing / Perfetto timeline"},
    {"list-workloads", nullptr, nullptr, "list workloads and their options, then exit"},
};

const OptionRow* FindFlag(const std::string& name) {
  for (const OptionRow& row : kCliFlags) {
    if (name == row.flag) return &row;
  }
  return magesim::FindOption(name);
}

// Collects --flag=value pairs. A bare switch reads as "1"; a repeated
// --tenant joins its specs with ';' (the tenancy list separator); any other
// repeat keeps the last value. Returns false after printing the offender.
bool ParseArgs(int argc, char** argv, std::map<std::string, std::string>* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    size_t eq = a.find('=');
    bool dashed = a.rfind("--", 0) == 0;
    std::string name = dashed ? a.substr(2, eq == std::string::npos ? eq : eq - 2) : "";
    const OptionRow* row = FindFlag(name);
    if (row == nullptr) {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
    if (eq == std::string::npos && row->value != nullptr) {
      std::fprintf(stderr, "%s needs a value: --%s=%s\n", a.c_str(), row->flag, row->value);
      return false;
    }
    std::string value = eq == std::string::npos ? "1" : a.substr(eq + 1);
    auto it = args->find(name);
    if (it != args->end() && name == "tenant") value = it->second + ";" + value;
    // insert_or_assign rather than operator[]= : the latter trips a GCC 12
    // -Wrestrict false positive (PR105329) when the char* assign inlines.
    args->insert_or_assign(name, std::move(value));
  }
  return true;
}

std::string Get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& def) {
  auto it = args.find(key);
  return it == args.end() ? def : it->second;
}

int ListWorkloadsMain() {
  for (const magesim::WorkloadInfo& w : magesim::ListWorkloads()) {
    std::printf("%-12s %s\n", w.name.c_str(), w.description.c_str());
    std::printf("%-12s options: %s\n", "", w.options.c_str());
  }
  return 0;
}

// Parses integer flag `name` in [lo, hi] into *out if given; false on error.
bool IntFlag(const std::map<std::string, std::string>& args, const char* name, int64_t lo,
             int64_t hi, int64_t* out) {
  auto it = args.find(name);
  if (it == args.end()) return true;
  std::string err;
  if (!magesim::ParseIntValue(it->second, lo, hi, out, &err)) {
    std::fprintf(stderr, "bad --%s: %s\n", name, err.c_str());
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: magesim_cli --workload=<name> [--system=<name>] [flags]\n"
               "       magesim_cli --tenant=<spec>... [--system=<name>] [flags]\n"
               "%s"
               "machine options (a MAGESIM_* variable overrides its flag; setting any\n"
               "metrics or spans option enables that subsystem):\n%s",
               magesim::OptionUsage(kCliFlags).c_str(), magesim::OptionUsage().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace magesim;
  std::map<std::string, std::string> args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.count("list-workloads") != 0) return ListWorkloadsMain();

  std::string wname = Get(args, "workload", "");
  std::string sname = Get(args, "system", "magelib");
  int64_t far = 30;
  int64_t threads = 24;
  if (!IntFlag(args, "far", 0, 99, &far) ||
      !IntFlag(args, "threads", 1, MachineParams{}.cores(), &threads)) {
    return 2;
  }
  if (wname.empty() && args.count("tenant") == 0) return Usage();

  std::unique_ptr<Workload> wl;
  if (!wname.empty()) {
    WorkloadParams params;
    params.threads = static_cast<int>(threads);
    auto opts = args.find("workload-opts");
    if (opts != args.end() && !ParseWorkloadOpts(opts->second, &params.opts)) {
      std::fprintf(stderr, "malformed --workload-opts (expected key=val,key=val)\n");
      return 2;
    }
    std::string tf = Get(args, "trace-file", "");
    if (!tf.empty()) params.opts.insert_or_assign("file", tf);
    std::string werr;
    wl = MakeWorkload(wname, params, &werr);
    if (wl == nullptr) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return 2;
    }
    std::string save = Get(args, "save-trace", "");
    if (!save.empty()) {
      auto* replay = dynamic_cast<TraceReplayWorkload*>(wl.get());
      if (replay == nullptr) {
        std::fprintf(stderr, "--save-trace only applies to trace-backed workloads\n");
        return 2;
      }
      if (!replay->trace().SaveTo(save)) {
        std::fprintf(stderr, "cannot save trace to '%s'\n", save.c_str());
        return 1;
      }
    }
  } else {
    // Tenancy replaces the constructor workload with a machine-built
    // MultiTenantWorkload; the placeholder below never runs.
    wl = MakeWorkload("seqscan", WorkloadParams{.threads = 1, .opts = {{"pages", "64"}, {"passes", "1"}}},
                      nullptr);
  }

  FarMemoryMachine::Options opt;
  try {
    opt.kernel = ConfigByName(sname);
  } catch (const std::invalid_argument&) {
    return Usage();
  }
  opt.local_mem_ratio = 1.0 - static_cast<double>(far) / 100.0;
  opt.time_limit = 5 * kSecond;  // safety stop for open-ended workloads
  // Flags first, then the environment on top: a MAGESIM_* variable wins.
  for (const OptionRow& row : OptionTable()) {
    auto it = args.find(row.flag);
    std::string err;
    if (it != args.end() && !ApplyOption(row.flag, it->second, &opt, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
  }
  try {
    ApplyEnvOverrides(&opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Install the tracer (if requested) before building the machine so the
  // checker's recent-event ring registers with it.
  Tracer tracer;
  std::unique_ptr<JsonlTraceSink> jsonl;
  std::unique_ptr<ChromeTraceSink> chrome;
  std::string trace_path = Get(args, "trace", "");
  std::string chrome_path = Get(args, "trace-chrome", "");
  if (!trace_path.empty()) {
    jsonl = std::make_unique<JsonlTraceSink>(trace_path);
    if (!jsonl->ok()) {
      std::fprintf(stderr, "cannot open trace output '%s'\n", trace_path.c_str());
      return 1;
    }
    tracer.AddSink(jsonl.get());
  }
  if (!chrome_path.empty()) {
    chrome = std::make_unique<ChromeTraceSink>(chrome_path);
    if (!chrome->ok()) {
      std::fprintf(stderr, "cannot open trace output '%s'\n", chrome_path.c_str());
      return 1;
    }
    tracer.AddSink(chrome.get());
  }
  if (jsonl != nullptr || chrome != nullptr || opt.check_interval > 0 || opt.check_final) {
    tracer.Install();
  }

  std::unique_ptr<FarMemoryMachine> machine_ptr;
  try {
    machine_ptr = std::make_unique<FarMemoryMachine>(opt, *wl);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  FarMemoryMachine& machine = *machine_ptr;
  if (machine.spans() != nullptr && chrome != nullptr) {
    // Span slices + causal flow arrows ride the same Chrome timeline.
    machine.spans()->AttachChrome(chrome.get());
  }
  RunResult r = machine.Run();

  // With tenancy the machine swaps in a MultiTenantWorkload; report that one.
  Workload& ran = machine.workload();
  std::printf("workload=%s system=%s far=%d%% threads=%d\n", ran.name().c_str(), sname.c_str(),
              static_cast<int>(far), ran.num_threads());
  std::printf("sim time        %.4f s\n", r.sim_seconds);
  std::printf("throughput      %.3f M %s/s\n", r.ops_per_sec / 1e6, ran.ops_unit().c_str());
  std::printf("major faults    %llu (%.2f M/s)\n",
              static_cast<unsigned long long>(r.faults), r.fault_mops);
  std::printf("fault latency   %s\n", r.fault_latency.Summary().c_str());
  std::printf("sync evictions  %llu\n", static_cast<unsigned long long>(r.sync_evictions));
  std::printf("evicted pages   %llu\n", static_cast<unsigned long long>(r.evicted_pages));
  std::printf("network         read %.1f Gbps / write %.1f Gbps\n", r.nic_read_gbps,
              r.nic_write_gbps);
  std::printf("tlb shootdowns  %s (ipis %llu)\n", r.tlb_shootdown_latency.Summary().c_str(),
              static_cast<unsigned long long>(r.ipis_sent));
  for (const TenantRunResult& t : r.tenants) {
    std::printf("tenant %-8s qos=%-7s %.3f M ops/s  faults %llu  usage %llu/%llu pages"
                "  evicted %llu  hard-waits %llu  throttles %llu\n",
                t.name.c_str(), QosClassName(t.qos), t.ops_per_sec / 1e6,
                static_cast<unsigned long long>(t.faults),
                static_cast<unsigned long long>(t.usage_pages),
                static_cast<unsigned long long>(t.hard_limit_pages),
                static_cast<unsigned long long>(t.evict_selected),
                static_cast<unsigned long long>(t.hard_limit_waits),
                static_cast<unsigned long long>(t.backpressure_waits));
  }
  if (machine.resilience() != nullptr) {
    std::printf("resilience      retries %llu timeouts %llu breaker-opens %llu "
                "poisoned %llu wb-lost %llu\n",
                static_cast<unsigned long long>(r.rdma_retries),
                static_cast<unsigned long long>(r.rdma_timeouts),
                static_cast<unsigned long long>(r.breaker_opens),
                static_cast<unsigned long long>(r.pages_poisoned),
                static_cast<unsigned long long>(r.writebacks_lost));
  }
  if (machine.fleet() != nullptr) {
    std::printf("fleet           nodes %llu x%d  degraded-reads %llu  lost %llu  "
                "rebuilt %llu  pending %llu  silent-losses %llu\n",
                static_cast<unsigned long long>(r.fleet_nodes), machine.fleet()->replication(),
                static_cast<unsigned long long>(r.fleet_degraded_reads),
                static_cast<unsigned long long>(r.fleet_slots_lost),
                static_cast<unsigned long long>(r.fleet_slots_rebuilt),
                static_cast<unsigned long long>(r.fleet_rebuild_pending),
                static_cast<unsigned long long>(r.fleet_silent_losses));
  }
  if (machine.injector() != nullptr) {
    std::printf("injected        windows %llu drops %llu errors %llu crashes %llu\n",
                static_cast<unsigned long long>(r.fault_windows),
                static_cast<unsigned long long>(r.injected_drops),
                static_cast<unsigned long long>(r.injected_errors),
                static_cast<unsigned long long>(r.memnode_crashes));
  }
  if (machine.metrics() != nullptr && !opt.metrics.report_path.empty()) {
    std::printf("run report      %s\n", opt.metrics.report_path.c_str());
  }
  if (machine.spans() != nullptr) {
    SpanTracer& st = *machine.spans();
    std::printf("spans           %s\n", st.FingerprintSummary().c_str());
    SpanTailSummary tail = st.Tail(SpanKind::kFault);
    if (tail.count > 0) {
      // Where do the slowest faults spend their time? Name the dominant
      // critical-path phase of the p99 latency band.
      const SpanTailBand& band = tail.bands[2];
      SpanKind top = SpanKind::kFault;
      for (int k = 0; k < kNumSpanKinds; ++k) {
        if (band.phase_ns[static_cast<size_t>(k)] >
            band.phase_ns[static_cast<size_t>(top)]) {
          top = static_cast<SpanKind>(k);
        }
      }
      std::printf("fault p99 band  %llu ops >= %.1f us: top phase %s (%.0f%%)\n",
                  static_cast<unsigned long long>(band.ops),
                  static_cast<double>(band.threshold_ns) / 1000.0, SpanKindName(top),
                  band.Share(top) * 100.0);
    }
    if (!opt.spans.out_path.empty()) {
      std::printf("span export     %s%s\n", opt.spans.out_path.c_str(),
                  st.export_ok() ? "" : " (write failed)");
    }
  }
  if (machine.checker() != nullptr) {
    std::printf("%s\n", machine.checker()->Report().c_str());
    if (r.invariant_violations > 0) return 1;
  }
  if (machine.analyzer() != nullptr) {
    std::printf("analysis        locks %llu order-edges %llu violations %llu\n",
                static_cast<unsigned long long>(r.analysis_locks),
                static_cast<unsigned long long>(r.analysis_order_edges),
                static_cast<unsigned long long>(r.analysis_violations));
    if (r.analysis_violations > 0) {
      std::printf("%s\n", machine.analyzer()->Report().c_str());
      return 1;
    }
  }
  if (r.aborted) {
    std::fprintf(stderr, "run aborted: %s\n", r.abort_reason.c_str());
    return 1;
  }
  return 0;
}
