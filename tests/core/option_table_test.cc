// The option table is the one text surface for FarMemoryMachine::Options:
// a flag and its MAGESIM_* variable must set the same thing, malformed values
// are rejected with the option named, the usage text covers every row with
// the real defaults, and the library itself never reads the environment.
#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <stdexcept>
#include <string>

#include "src/core/farmem.h"
#include "src/core/option_table.h"
#include "src/workloads/seqscan.h"
#include "tests/scoped_env.h"

namespace magesim {
namespace {

// One valid value per row that has both a flag and an environment name.
std::map<std::string, std::string> SampleValues() {
  std::string tmp = testing::TempDir();
  return {
      {"tenant",
       "a:1:0.4:latency=seqscan/2,pages=512,passes=1;b:1:0.6:batch=seqscan/2,pages=512,passes=1"},
      {"fleet-nodes", "2"},
      {"fleet-replicas", "1"},
      {"fleet-rebuild-gbps", "2.5"},
      {"fault-plan", "brownout@0ms-1ms:bw=0.5"},
      {"check-interval", "20"},
      {"analysis", "1"},
      {"metrics-out", tmp + "option_table_report.json"},
      {"metrics-csv", tmp + "option_table_series.csv"},
      {"metrics-prom", tmp + "option_table_metrics.txt"},
      {"sample-interval-us", "250"},
      {"progress", "0"},
      {"spans", "1"},
      {"spans-out", tmp + "option_table_spans.jsonl"},
      {"spans-top-k", "3"},
      {"spans-sample", "2"},
  };
}

std::string StripWallClock(const std::string& json) {
  static const std::regex kWallClock("\"wall_clock\":\\{[^}]*\\},?");
  return std::regex_replace(json, kWallClock, "");
}

FarMemoryMachine::Options BaseOptions() {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 3;
  opt.metrics.enabled = true;  // every run emits a run report to compare
  return opt;
}

std::string RunReport(const FarMemoryMachine::Options& opt) {
  SeqScanWorkload wl({.region_pages = 1024, .threads = 2, .passes = 2});
  FarMemoryMachine m(opt, wl);
  m.Run();
  return StripWallClock(m.run_report_json());
}

TEST(OptionTableTest, FlagAndEnvGiveTheSameRunReport) {
  std::map<std::string, std::string> samples = SampleValues();
  int rows = 0;
  for (const OptionRow& row : OptionTable()) {
    if (row.env == nullptr) continue;
    SCOPED_TRACE(row.flag);
    auto it = samples.find(row.flag);
    ASSERT_NE(it, samples.end()) << "add a sample value for --" << row.flag;
    ++rows;

    FarMemoryMachine::Options by_flag = BaseOptions();
    std::string err;
    ASSERT_TRUE(ApplyOption(row.flag, it->second, &by_flag, &err)) << err;

    FarMemoryMachine::Options by_env = BaseOptions();
    {
      ScopedEnv env({{row.env, it->second.c_str()}});
      ApplyEnvOverrides(&by_env);
    }
    std::string flag_report = RunReport(by_flag);
    ASSERT_FALSE(flag_report.empty());
    EXPECT_EQ(flag_report, RunReport(by_env));
  }
  EXPECT_EQ(rows, 16);  // the 16 documented MAGESIM_* overrides
}

TEST(OptionTableTest, SettingAnyMetricsOrSpansFieldEnablesTheSubsystem) {
  for (const char* flag : {"metrics-out", "metrics-csv", "metrics-prom", "sample-interval-us",
                           "progress"}) {
    FarMemoryMachine::Options opt;
    std::string err;
    ASSERT_TRUE(ApplyOption(flag, flag == std::string("sample-interval-us") ? "5" : "0", &opt,
                            &err))
        << err;
    EXPECT_TRUE(opt.metrics.enabled) << flag;
  }
  for (const char* flag : {"spans-out", "spans-top-k", "spans-sample"}) {
    FarMemoryMachine::Options opt;
    std::string err;
    ASSERT_TRUE(ApplyOption(flag, "4", &opt, &err)) << err;
    EXPECT_TRUE(opt.spans.enabled) << flag;
  }
  // In table order an explicit off switch does not undo a later field.
  FarMemoryMachine::Options opt;
  ScopedEnv env({{"MAGESIM_SPANS", "0"}, {"MAGESIM_SPANS_TOP_K", "2"}});
  ApplyEnvOverrides(&opt);
  EXPECT_TRUE(opt.spans.enabled);
  EXPECT_EQ(opt.spans.top_k, 2);
}

TEST(OptionTableTest, ValuesLandInTheirFields) {
  FarMemoryMachine::Options opt;
  std::string err;
  ASSERT_TRUE(ApplyOption("seed", "0", &opt, &err)) << err;
  EXPECT_EQ(opt.seed, 0u);
  ASSERT_TRUE(ApplyOption("fleet-nodes", "16", &opt, &err)) << err;
  EXPECT_EQ(opt.fleet.num_nodes, 16);
  ASSERT_TRUE(ApplyOption("fleet-rebuild-gbps", "2.5", &opt, &err)) << err;
  EXPECT_DOUBLE_EQ(opt.fleet.rebuild_gbps, 2.5);
  ASSERT_TRUE(ApplyOption("terminal", "fail", &opt, &err)) << err;
  EXPECT_EQ(opt.resilience.terminal, TerminalPolicy::kFailRun);
  ASSERT_TRUE(ApplyOption("sample-interval-us", "250", &opt, &err)) << err;
  EXPECT_EQ(opt.metrics.sample_interval, 250 * kMicrosecond);

  // 0 keeps periodic checking off but still runs the final check.
  FarMemoryMachine::Options checked;
  ASSERT_TRUE(ApplyOption("check-interval", "0", &checked, &err)) << err;
  EXPECT_EQ(checked.check_interval, 0);
  EXPECT_TRUE(checked.check_final);
  ASSERT_TRUE(ApplyOption("check-interval", "75", &checked, &err)) << err;
  EXPECT_EQ(checked.check_interval, 75 * kMicrosecond);
}

TEST(OptionTableTest, MalformedFlagValuesAreRejectedNamingTheFlag) {
  const std::pair<const char*, const char*> kBad[] = {
      {"seed", "abc"},
      {"seed", "-1"},
      {"seed", ""},
      {"seed", "99999999999999999999"},
      {"seed", " 5"},
      {"fleet-nodes", "two"},
      {"fleet-nodes", "0"},
      {"fleet-nodes", "17"},
      {"fleet-replicas", "9"},
      {"fleet-rebuild-gbps", "fast"},
      {"fleet-rebuild-gbps", "0"},
      {"fleet-rebuild-gbps", "nan"},
      {"fleet-rebuild-gbps", "1.5x"},
      {"terminal", "crash"},
      {"check-interval", "-5"},
      {"check-interval", "10ms"},
      {"check", "yes"},
      {"analysis", "2"},
      {"sample-interval-us", "0"},
      {"progress", "on"},
      {"spans", "true"},
      {"spans-top-k", "8x"},
      {"spans-top-k", "-1"},
      {"spans-sample", "0"},
      {"tenant", "not-a-spec"},
      {"tenant", ""},
  };
  for (const auto& [flag, value] : kBad) {
    FarMemoryMachine::Options opt;
    std::string err;
    EXPECT_FALSE(ApplyOption(flag, value, &opt, &err)) << "--" << flag << "=" << value;
    EXPECT_NE(err.find(std::string("--") + flag), std::string::npos) << err;
  }
  FarMemoryMachine::Options opt;
  std::string err;
  EXPECT_FALSE(ApplyOption("span-out", "x.jsonl", &opt, &err));
  EXPECT_NE(err.find("--span-out"), std::string::npos) << err;
}

TEST(OptionTableTest, MalformedEnvValuesThrowNamingTheVariable) {
  const std::pair<const char*, const char*> kBad[] = {
      {"MAGESIM_FLEET_NODES", "two"},        {"MAGESIM_SPANS_TOP_K", "8x"},
      {"MAGESIM_CHECK_INTERVAL_US", "abc"},  {"MAGESIM_ANALYSIS", "yes"},
      {"MAGESIM_FLEET_REBUILD_GBPS", "-1"},  {"MAGESIM_TENANCY", "x"},
  };
  for (const auto& [name, value] : kBad) {
    ScopedEnv env({{name, value}});
    FarMemoryMachine::Options opt;
    try {
      ApplyEnvOverrides(&opt);
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
}

TEST(OptionTableTest, LibraryReadsNoEnvironment) {
  // Every override set, several of them malformed: a machine built without
  // the overlay must neither throw nor pick any of them up.
  std::map<std::string, std::string> samples = SampleValues();
  ScopedEnv env({{"MAGESIM_TENANCY", "x"},
                 {"MAGESIM_FLEET_NODES", "two"},
                 {"MAGESIM_FAULT_PLAN", "crash@0ms-1ms"},
                 {"MAGESIM_CHECK_INTERVAL_US", "20"},
                 {"MAGESIM_ANALYSIS", "1"},
                 {"MAGESIM_METRICS_OUT", samples["metrics-out"].c_str()},
                 {"MAGESIM_SPANS", "1"}});
  SeqScanWorkload wl({.region_pages = 512, .threads = 2, .passes = 1});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  FarMemoryMachine m(opt, wl);
  EXPECT_EQ(m.tenancy(), nullptr);
  EXPECT_EQ(m.fleet(), nullptr);
  EXPECT_EQ(m.injector(), nullptr);
  EXPECT_EQ(m.checker(), nullptr);
  EXPECT_EQ(m.analyzer() != nullptr, FarMemoryMachine::Options{}.analysis.enabled);
  EXPECT_EQ(m.metrics(), nullptr);
  EXPECT_EQ(m.spans(), nullptr);
}

TEST(OptionTableTest, UsageCoversEveryRowWithTheRealDefaults) {
  std::string usage = OptionUsage();
  for (const OptionRow& row : OptionTable()) {
    EXPECT_NE(usage.find(std::string("--") + row.flag), std::string::npos) << row.flag;
    if (row.env != nullptr) {
      EXPECT_NE(usage.find(row.env), std::string::npos) << row.env;
    }
    EXPECT_EQ(FindOption(row.flag), &row);
  }
  const FarMemoryMachine::Options def;
  const std::map<std::string, std::string> kDefaults = {
      {"seed", std::to_string(def.seed)},
      {"fleet-nodes", std::to_string(def.fleet.num_nodes)},
      {"fleet-replicas", std::to_string(def.fleet.replication)},
      {"fleet-rebuild-gbps", std::to_string(static_cast<int>(def.fleet.rebuild_gbps))},
      {"spans-top-k", std::to_string(def.spans.top_k)},
      {"spans-sample", std::to_string(def.spans.sample_every)},
  };
  for (const auto& [flag, value] : kDefaults) {
    const OptionRow* row = FindOption(flag);
    ASSERT_NE(row, nullptr) << flag;
    EXPECT_NE(std::string(row->doc).find("default " + value), std::string::npos)
        << "--" << flag << ": " << row->doc;
  }
}

}  // namespace
}  // namespace magesim
