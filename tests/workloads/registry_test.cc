// Tests for the by-name workload factory and the multi-tenant composite
// workload built on top of it.
#include <gtest/gtest.h>

#include <string>

#include "src/tenancy/tenant_spec.h"
#include "src/workloads/multi_tenant.h"
#include "src/workloads/registry.h"

namespace magesim {
namespace {

TEST(WorkloadRegistryTest, ListIsSortedAndCoversTheCliNames) {
  const std::vector<WorkloadInfo>& infos = ListWorkloads();
  ASSERT_FALSE(infos.empty());
  for (size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(infos[i - 1].name, infos[i].name);
  }
  auto has = [&](const std::string& name) {
    for (const WorkloadInfo& w : infos) {
      if (w.name == name) return true;
    }
    return false;
  };
  for (const char* name : {"pagerank", "xsbench", "seqscan", "gups", "metis", "memcached",
                           "zipf-trace", "mixed-trace", "trace", "dataframe"}) {
    EXPECT_TRUE(has(name)) << name;
  }
}

TEST(WorkloadRegistryTest, BuildsWithDefaultsAndThreadCount) {
  WorkloadParams params;
  params.threads = 3;
  std::string err;
  std::unique_ptr<Workload> wl = MakeWorkload("seqscan", params, &err);
  ASSERT_NE(wl, nullptr) << err;
  EXPECT_EQ(wl->name(), "seqscan");
  EXPECT_EQ(wl->num_threads(), 3);
  EXPECT_EQ(wl->wss_pages(), 32u * 1024u);  // historical CLI default
}

TEST(WorkloadRegistryTest, AppliesOptionOverrides) {
  WorkloadParams params;
  params.threads = 2;
  params.opts = {{"pages", "4096"}, {"passes", "8"}};
  std::string err;
  std::unique_ptr<Workload> wl = MakeWorkload("seqscan", params, &err);
  ASSERT_NE(wl, nullptr) << err;
  EXPECT_EQ(wl->wss_pages(), 4096u);
}

TEST(WorkloadRegistryTest, RejectsUnknownNamesKeysAndValues) {
  WorkloadParams params;
  std::string err;
  EXPECT_EQ(MakeWorkload("frobnicate", params, &err), nullptr);
  EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

  params.opts = {{"pagez", "4096"}};  // typo'd key must not run silently
  EXPECT_EQ(MakeWorkload("seqscan", params, &err), nullptr);
  EXPECT_NE(err.find("pagez"), std::string::npos) << err;

  params.opts = {{"pages", "many"}};
  EXPECT_EQ(MakeWorkload("seqscan", params, &err), nullptr);
  EXPECT_NE(err.find("many"), std::string::npos) << err;
}

TEST(WorkloadRegistryTest, RejectsZipfThetaOfOne) {
  // The Zipf quick method divides by 1 - theta; at theta = 1 it piles most
  // samples on the last rank instead of failing.
  for (const char* name : {"gups", "zipf-trace", "mixed-trace"}) {
    for (const char* theta : {"1", "1.0", "nan", "inf"}) {
      WorkloadParams params;
      params.opts = {{"theta", theta}};
      std::string err;
      EXPECT_EQ(MakeWorkload(name, params, &err), nullptr) << name << " theta=" << theta;
      EXPECT_NE(err.find("theta"), std::string::npos) << err;
    }
  }
  WorkloadParams params;
  params.opts = {{"theta", "0.9"}, {"wss", "64"}, {"accesses", "10"}};
  std::string err;
  EXPECT_NE(MakeWorkload("zipf-trace", params, &err), nullptr) << err;
}

TEST(WorkloadRegistryTest, RejectsPageRankScaleOutsideZeroTo32) {
  // Neighbor ids are uint32_t; a negative scale used to wrap through the
  // unsigned parser into a shift by -1.
  for (const char* scale : {"-1", "33", "4294967296", "x"}) {
    WorkloadParams params;
    params.opts = {{"scale", scale}};
    std::string err;
    EXPECT_EQ(MakeWorkload("pagerank", params, &err), nullptr) << "scale=" << scale;
    EXPECT_NE(err.find("scale"), std::string::npos) << err;
  }
  for (const char* scale : {"0", "4"}) {
    WorkloadParams params;
    params.opts = {{"scale", scale}};
    std::string err;
    EXPECT_NE(MakeWorkload("pagerank", params, &err), nullptr) << "scale=" << scale << ": " << err;
  }
}

TEST(WorkloadRegistryTest, RejectsSizesTooSmallToRun) {
  // Each of these used to reach a division or modulo by zero (a Zipf
  // generator over zero ranks, a zero-page shard), a query reading a column
  // that does not exist (dataframe), or a load generator whose arrival gap
  // never advanced time (memcached).
  struct Case {
    const char* workload;
    const char* key;
    const char* bad;
    const char* smallest_ok;
  };
  const Case cases[] = {
      {"gups", "pages", "1", "2"},           {"gups", "pages", "0", "2"},
      {"zipf-trace", "wss", "0", "1"},       {"mixed-trace", "wss", "0", "2"},
      {"mixed-trace", "wss", "1", "2"},      {"memcached", "keys", "0", "1"},
      {"metis", "intermediate", "0", "1"},   {"xsbench", "gridpoints", "0", "1"},
      {"dataframe", "columns", "0", "3"},    {"dataframe", "columns", "2", "3"},
      {"memcached", "ops", "0", "0.5"},      {"memcached", "ops", "-1", "0.5"},
      {"memcached", "ops", "inf", "0.5"},
  };
  for (const Case& c : cases) {
    WorkloadParams params;
    params.threads = 2;
    params.opts = {{c.key, c.bad}};
    std::string err;
    EXPECT_EQ(MakeWorkload(c.workload, params, &err), nullptr) << c.workload << " " << c.key;
    EXPECT_NE(err.find(std::string("'") + c.key + "'"), std::string::npos) << err;
    params.opts = {{c.key, c.smallest_ok}};
    EXPECT_NE(MakeWorkload(c.workload, params, &err), nullptr)
        << c.workload << " " << c.key << "=" << c.smallest_ok << ": " << err;
  }
}

TEST(WorkloadRegistryTest, TraceRequiresAFile) {
  WorkloadParams params;
  std::string err;
  EXPECT_EQ(MakeWorkload("trace", params, &err), nullptr);
  EXPECT_FALSE(err.empty());
}

std::vector<TenantSpec> TwoSpecs() {
  TenancyOptions opts;
  std::string err;
  EXPECT_TRUE(ParseTenancyList(
      "lat:4:0.4:latency=seqscan/2,pages=1024,passes=1;"
      "bg:1:0.8:batch=seqscan/3,pages=2048,passes=1",
      &opts, &err))
      << err;
  return opts.tenants;
}

TEST(MultiTenantWorkloadTest, ResolvesDisjointPlacement) {
  std::vector<TenantSpec> specs = TwoSpecs();
  std::string err;
  std::unique_ptr<MultiTenantWorkload> wl = MultiTenantWorkload::Build(&specs, &err);
  ASSERT_NE(wl, nullptr) << err;

  EXPECT_EQ(wl->num_tenants(), 2);
  EXPECT_EQ(wl->wss_pages(), 1024u + 2048u);
  EXPECT_EQ(wl->num_threads(), 5);

  // Tenant 0 owns the first vpn window and the first thread block; tenant 1
  // follows contiguously (prefix sums).
  EXPECT_EQ(specs[0].vpn_base, 0u);
  EXPECT_EQ(specs[0].vpn_pages, 1024u);
  EXPECT_EQ(specs[0].thread_begin, 0);
  EXPECT_EQ(specs[0].thread_end, 2);
  EXPECT_EQ(specs[1].vpn_base, 1024u);
  EXPECT_EQ(specs[1].vpn_pages, 2048u);
  EXPECT_EQ(specs[1].thread_begin, 2);
  EXPECT_EQ(specs[1].thread_end, 5);
  EXPECT_TRUE(specs[0].resolved());
  EXPECT_TRUE(specs[1].resolved());
}

TEST(MultiTenantWorkloadTest, PropagatesRegistryErrors) {
  std::vector<TenantSpec> specs = TwoSpecs();
  specs[1].workload = "frobnicate";
  std::string err;
  EXPECT_EQ(MultiTenantWorkload::Build(&specs, &err), nullptr);
  EXPECT_NE(err.find("bg"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;
}

TEST(MultiTenantWorkloadTest, RejectsEmptyTenantList) {
  std::vector<TenantSpec> none;
  std::string err;
  EXPECT_EQ(MultiTenantWorkload::Build(&none, &err), nullptr);
}

}  // namespace
}  // namespace magesim
