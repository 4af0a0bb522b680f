#include "src/workloads/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <set>

#include "src/workloads/dataframe.h"
#include "src/workloads/gups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/metis.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"
#include "src/workloads/trace.h"
#include "src/workloads/xsbench.h"

namespace magesim {

namespace {

// Typed option access over the raw key=value map, tracking which keys were
// consumed so Finish() can reject typos.
class OptReader {
 public:
  OptReader(const std::map<std::string, std::string>& opts, std::string* error)
      : opts_(opts), error_(error) {}

  uint64_t U64(const std::string& key, uint64_t def) {
    const std::string* v = Find(key);
    if (v == nullptr) return def;
    char* end = nullptr;
    uint64_t out = std::strtoull(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0') Fail(key, *v);
    return out;
  }

  // A size that must be at least `min`: the workloads divide by it, take it
  // modulo, or size a Zipf generator with it, so a smaller value would crash
  // or hang the run instead of failing here.
  uint64_t U64AtLeast(const std::string& key, uint64_t def, uint64_t min) {
    uint64_t out = U64(key, def);
    if (out < min) {
      Fail(key, *Find(key));
      return def;
    }
    return out;
  }

  int Int(const std::string& key, int def) { return static_cast<int>(U64(key, static_cast<uint64_t>(def))); }

  // An integer that must lie in [lo, hi]. Parsed signed, so "-1" is out of
  // range rather than wrapped through uint64_t.
  int IntIn(const std::string& key, int def, int lo, int hi) {
    const std::string* v = Find(key);
    if (v == nullptr) return def;
    char* end = nullptr;
    long long out = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || out < lo || out > hi) {
      Fail(key, *v);
      return def;
    }
    return static_cast<int>(out);
  }

  double Dbl(const std::string& key, double def) {
    const std::string* v = Find(key);
    if (v == nullptr) return def;
    char* end = nullptr;
    double out = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') Fail(key, *v);
    return out;
  }

  // A finite rate above zero: memcached draws inter-arrival gaps of
  // 1e9 / rate ns, and a rate of 0 turned into a negative gap that never
  // advanced simulated time.
  double PositiveDbl(const std::string& key, double def) {
    double out = Dbl(key, def);
    if (!std::isfinite(out) || out <= 0) {
      Fail(key, *Find(key));
      return def;
    }
    return out;
  }

  // A Zipf skew. The quick method (ZipfGenerator) divides by 1 - theta, so
  // theta = 1 is rejected rather than silently piling samples on one rank.
  double Theta(double def) {
    double theta = Dbl("theta", def);
    if (!std::isfinite(theta) || theta == 1.0) {
      Fail("theta", *Find("theta"));
      return def;
    }
    return theta;
  }

  std::string Str(const std::string& key, const std::string& def) {
    const std::string* v = Find(key);
    return v == nullptr ? def : *v;
  }

  // False once any value failed to parse; factories check it before building
  // anything a bad value could make expensive or undefined.
  bool ok() const { return error_->empty(); }

  // True when every provided key was consumed; otherwise reports the typo.
  bool Finish(const std::string& wname) {
    for (const auto& [k, v] : opts_) {
      if (seen_.count(k) == 0) {
        *error_ = "workload '" + wname + "' does not take option '" + k + "'";
        return false;
      }
    }
    return error_->empty();
  }

 private:
  const std::string* Find(const std::string& key) {
    seen_.insert(key);
    auto it = opts_.find(key);
    return it == opts_.end() ? nullptr : &it->second;
  }

  void Fail(const std::string& key, const std::string& v) {
    if (error_->empty()) *error_ = "bad value '" + v + "' for option '" + key + "'";
  }

  const std::map<std::string, std::string>& opts_;
  std::string* error_;
  std::set<std::string> seen_;
};

using Factory =
    std::function<std::unique_ptr<Workload>(const WorkloadParams&, OptReader&)>;

struct Entry {
  WorkloadInfo info;
  Factory make;
};

// Defaults mirror the CLI's historical hard-coded configurations, so
// `--workload=foo` keeps producing exactly the runs it always did.
const std::vector<Entry>& Registry() {
  static const std::vector<Entry>* entries = new std::vector<Entry>{
      {{"dataframe", "columnar filter+group-by queries",
        "rows=8388608 columns=4 queries=4"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<DataframeWorkload>(DataframeWorkload::Options{
             .num_rows = o.U64("rows", 8 * 1024 * 1024),
             // Every query reads columns 0, 1 and 2.
             .num_columns = static_cast<int>(o.U64AtLeast("columns", 4, 3)),
             .threads = p.threads,
             .queries_per_thread = o.Int("queries", 4)});
       }},
      {{"gups", "random updates with a working-set phase change",
        "pages=49152 theta=0.99 phase_ms=300 run_ms=600"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<GupsWorkload>(GupsWorkload::Options{
             // Regions A and B take 80% and 20% of the pages; each needs one.
             .total_pages = o.U64AtLeast("pages", 48 * 1024, 2),
             .threads = p.threads,
             .zipf_theta = o.Theta(0.99),
             .phase_change_at = static_cast<SimTime>(o.U64("phase_ms", 300)) * kMillisecond,
             .run_for = static_cast<SimTime>(o.U64("run_ms", 600)) * kMillisecond});
       }},
      {{"memcached", "closed-loop key-value server under offered load",
        "keys=262144 ops=200000 duration_ms=1000"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<MemcachedWorkload>(MemcachedWorkload::Options{
             .num_keys = o.U64AtLeast("keys", 1 << 18, 1),
             .load_ops_per_sec = o.PositiveDbl("ops", 200000),
             .server_threads = p.threads,
             .duration = static_cast<SimTime>(o.U64("duration_ms", 1000)) * kMillisecond});
       }},
      {{"metis", "map-reduce word count (input scan + hash intermediate)",
        "input=16384 intermediate=12288"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<MetisWorkload>(MetisWorkload::Options{
             .input_pages = o.U64("input", 16 * 1024),
             .intermediate_pages = o.U64AtLeast("intermediate", 12 * 1024, 1),
             .threads = p.threads});
       }},
      {{"mixed-trace", "zipf point lookups mixed with shard scans",
        "wss=32768 accesses=20000 theta=0.95 scan=0.2"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         // Each thread scans its own wss / threads pages.
         TraceGenOptions gopt{
             .wss_pages = o.U64AtLeast("wss", 32 * 1024, static_cast<uint64_t>(std::max(p.threads, 1))),
             .threads = p.threads,
             .accesses_per_thread = o.U64("accesses", 20000)};
         double theta = o.Theta(0.95);
         double scan = o.Dbl("scan", 0.2);
         if (!o.ok()) return nullptr;
         return std::make_unique<TraceReplayWorkload>(GenerateMixedTrace(gopt, theta, scan));
       }},
      {{"pagerank", "GAP-style PageRank over a Kronecker graph",
        "scale=16 iterations=3"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         // Neighbor ids are uint32_t, so at most 2^32 vertices.
         int scale = o.IntIn("scale", 16, 0, 32);
         int iterations = o.Int("iterations", 3);
         if (!o.ok()) return nullptr;
         return std::make_unique<PageRankWorkload>(PageRankWorkload::Options{
             .scale = scale, .iterations = iterations, .threads = p.threads});
       }},
      {{"seqscan", "sequential multi-pass scan over a shared region",
        "pages=32768 passes=2 compute_ns=5570 write=0"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<SeqScanWorkload>(SeqScanWorkload::Options{
             .region_pages = o.U64("pages", 32 * 1024),
             .threads = p.threads,
             .passes = o.Int("passes", 2),
             .compute_per_page_ns = static_cast<SimTime>(o.U64("compute_ns", 5570)),
             .write = o.U64("write", 0) != 0});
       }},
      {{"trace", "replay a recorded access trace", "file=<path>"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         (void)p;  // thread count comes from the trace itself
         std::string path = o.Str("file", "");
         Trace trace;
         if (path.empty() || !Trace::LoadFrom(path, &trace)) return nullptr;
         return std::make_unique<TraceReplayWorkload>(std::move(trace));
       }},
      {{"xsbench", "Monte Carlo cross-section lookups (gather-heavy)",
        "gridpoints=262144 lookups=3000"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         return std::make_unique<XsBenchWorkload>(XsBenchWorkload::Options{
             .gridpoints = o.U64AtLeast("gridpoints", 1 << 18, 1),
             .lookups_per_thread = o.U64("lookups", 3000),
             .threads = p.threads});
       }},
      {{"zipf-trace", "zipf-distributed point accesses",
        "wss=32768 accesses=20000 theta=0.95"},
       [](const WorkloadParams& p, OptReader& o) -> std::unique_ptr<Workload> {
         TraceGenOptions gopt{.wss_pages = o.U64AtLeast("wss", 32 * 1024, 1),
                              .threads = p.threads,
                              .accesses_per_thread = o.U64("accesses", 20000)};
         double theta = o.Theta(0.95);
         if (!o.ok()) return nullptr;
         return std::make_unique<TraceReplayWorkload>(GenerateZipfTrace(gopt, theta));
       }},
  };
  return *entries;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadParams& params,
                                       std::string* error) {
  std::string local;
  if (error == nullptr) error = &local;
  error->clear();
  for (const Entry& e : Registry()) {
    if (e.info.name != name) continue;
    OptReader reader(params.opts, error);
    std::unique_ptr<Workload> w = e.make(params, reader);
    if (w == nullptr && error->empty()) {
      *error = "workload '" + name + "' could not be constructed (missing/bad input?)";
    }
    if (!reader.Finish(name)) return nullptr;
    return error->empty() ? std::move(w) : nullptr;
  }
  *error = "unknown workload '" + name + "'";
  return nullptr;
}

const std::vector<WorkloadInfo>& ListWorkloads() {
  static const std::vector<WorkloadInfo>* infos = [] {
    auto* v = new std::vector<WorkloadInfo>;
    for (const Entry& e : Registry()) v->push_back(e.info);
    std::sort(v->begin(), v->end(),
              [](const WorkloadInfo& a, const WorkloadInfo& b) { return a.name < b.name; });
    return v;
  }();
  return *infos;
}

}  // namespace magesim
