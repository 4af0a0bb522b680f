#include "src/tenancy/tenant_spec.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <set>

namespace magesim {

namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseFrac(const std::string& s, double* out, std::string* err) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || v < 0) {
    *err = "bad limit '" + s + "' (want a fraction like 0.4 or a percent like 40)";
    return false;
  }
  // Percentages read naturally ("40" = 40% of local DRAM).
  if (v > 1.0) v /= 100.0;
  if (v > 1.0) {
    *err = "limit '" + s + "' exceeds 100% of local memory";
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* QosClassName(QosClass q) {
  switch (q) {
    case QosClass::kLatency: return "latency";
    case QosClass::kNormal: return "normal";
    case QosClass::kBatch: return "batch";
  }
  return "?";
}

bool ParseQosClass(const std::string& s, QosClass* out) {
  if (s == "latency") {
    *out = QosClass::kLatency;
  } else if (s == "normal") {
    *out = QosClass::kNormal;
  } else if (s == "batch") {
    *out = QosClass::kBatch;
  } else {
    return false;
  }
  return true;
}

bool ParseIntValue(std::string_view text, int64_t lo, int64_t hi, int64_t* out,
                   std::string* err) {
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  if (ec == std::errc::invalid_argument || p != text.data() + text.size()) {
    *err = "expected an integer, got '" + std::string(text) + "'";
  } else if (ec == std::errc::result_out_of_range || *out < lo || *out > hi) {
    *err = "'" + std::string(text) + "' is out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  } else {
    return true;
  }
  return false;
}

bool ParseWorkloadOpts(const std::string& s, std::map<std::string, std::string>* out) {
  for (const std::string& kv : Split(s, ',')) {
    size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    (*out)[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  return true;
}

bool ParseTenantSpec(const std::string& s, TenantSpec* out, std::string* err) {
  size_t eq = s.find('=');
  if (eq == std::string::npos) {
    *err = "tenant spec '" + s + "' is missing '=workload'";
    return false;
  }
  std::vector<std::string> head = Split(s.substr(0, eq), ':');
  if (head.size() != 4 && head.size() != 5) {
    *err = "tenant spec '" + s + "' wants name:weight:limit[:soft]:qos=workload";
    return false;
  }
  TenantSpec t;
  t.name = head[0];
  if (t.name.empty()) {
    *err = "tenant spec '" + s + "' has an empty name";
    return false;
  }
  int64_t w = 0;
  if (!ParseIntValue(head[1], 1, UINT32_MAX, &w, err)) {
    *err = "tenant '" + t.name + "': weight: " + *err;
    return false;
  }
  t.weight = static_cast<uint32_t>(w);
  if (!ParseFrac(head[2], &t.hard_frac, err)) return false;
  size_t qos_at = 3;
  if (head.size() == 5) {
    if (!ParseFrac(head[3], &t.soft_frac, err)) return false;
    qos_at = 4;
  }
  if (!ParseQosClass(head[qos_at], &t.qos)) {
    *err = "tenant '" + t.name + "': unknown qos '" + head[qos_at] +
           "' (want latency|normal|batch)";
    return false;
  }

  // Workload part: name[/threads][,k=v...]
  std::string wpart = s.substr(eq + 1);
  size_t comma = wpart.find(',');
  std::string wname = wpart.substr(0, comma);
  size_t slash = wname.find('/');
  if (slash != std::string::npos) {
    int64_t th = 0;
    if (!ParseIntValue(std::string_view(wname).substr(slash + 1), 1, INT32_MAX, &th, err)) {
      *err = "tenant '" + t.name + "': thread count: " + *err;
      return false;
    }
    t.threads = static_cast<int>(th);
    wname = wname.substr(0, slash);
  }
  if (wname.empty()) {
    *err = "tenant '" + t.name + "' has an empty workload name";
    return false;
  }
  t.workload = wname;
  if (comma != std::string::npos &&
      !ParseWorkloadOpts(wpart.substr(comma + 1), &t.workload_opts)) {
    *err = "tenant '" + t.name + "': bad workload options '" + wpart.substr(comma + 1) + "'";
    return false;
  }
  *out = std::move(t);
  return true;
}

bool ParseTenancyList(const std::string& s, TenancyOptions* out, std::string* err) {
  std::set<std::string> names;
  for (const std::string& part : Split(s, ';')) {
    if (part.empty()) continue;
    TenantSpec t;
    if (!ParseTenantSpec(part, &t, err)) return false;
    if (!names.insert(t.name).second) {
      *err = "duplicate tenant name '" + t.name + "'";
      return false;
    }
    out->tenants.push_back(std::move(t));
  }
  if (out->tenants.empty()) {
    *err = "tenancy spec '" + s + "' defines no tenants";
    return false;
  }
  out->enabled = true;
  return true;
}

}  // namespace magesim
