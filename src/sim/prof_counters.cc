#include "src/sim/prof_counters.h"

#ifdef MAGESIM_PROF

#include <cstdio>
#include <cstdlib>

namespace magesim {
namespace prof {
namespace {

Counter* g_head = nullptr;

}  // namespace

Counter::Counter(const char* n) : name(n) {
  if (g_head == nullptr) std::atexit(Report);
  next = g_head;
  g_head = this;
}

void Report() {
  uint64_t total = 0;
  for (Counter* c = g_head; c != nullptr; c = c->next) total += c->self_cycles;
  if (total == 0) return;
  std::fprintf(stderr, "\n== MAGESIM_PROF counters (share = of self cycles) ==\n");
  std::fprintf(stderr, "%-24s %14s %16s %10s %10s %7s\n", "scope", "calls", "cycles",
               "cyc/call", "self/call", "share");
  for (Counter* c = g_head; c != nullptr; c = c->next) {
    if (c->calls == 0) continue;
    const double calls = static_cast<double>(c->calls);
    std::fprintf(stderr, "%-24s %14llu %16llu %10.1f %10.1f %6.1f%%\n", c->name,
                 static_cast<unsigned long long>(c->calls),
                 static_cast<unsigned long long>(c->cycles),
                 static_cast<double>(c->cycles) / calls,
                 static_cast<double>(c->self_cycles) / calls,
                 100.0 * static_cast<double>(c->self_cycles) / static_cast<double>(total));
  }
}

}  // namespace prof
}  // namespace magesim

#endif  // MAGESIM_PROF
