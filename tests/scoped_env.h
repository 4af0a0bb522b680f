// Test helper for the environment overlay (src/core/option_table.h): clears
// every MAGESIM_* variable the option table reads, sets the given ones, and
// restores the previous environment on destruction. Overlay tests therefore
// see exactly the variables they set, even when ctest runs them under an
// ENVIRONMENT that sets others.
#ifndef MAGESIM_TESTS_SCOPED_ENV_H_
#define MAGESIM_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/option_table.h"

namespace magesim {

class ScopedEnv {
 public:
  explicit ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars = {}) {
    for (const OptionRow& row : OptionTable()) {
      if (row.env == nullptr) continue;
      const char* old = std::getenv(row.env);
      saved_.emplace_back(row.env, old != nullptr ? std::optional<std::string>(old)
                                                  : std::nullopt);
      unsetenv(row.env);
    }
    for (const auto& [name, value] : vars) setenv(name, value, 1);
  }
  ~ScopedEnv() {
    for (const auto& [name, value] : saved_) {
      if (value.has_value()) {
        setenv(name, value->c_str(), 1);
      } else {
        unsetenv(name);
      }
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

}  // namespace magesim

#endif  // MAGESIM_TESTS_SCOPED_ENV_H_
