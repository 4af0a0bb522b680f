// The one text surface for FarMemoryMachine::Options. Each row holds an
// option's magesim_cli flag, MAGESIM_* environment name, usage doc (naming the
// default) and setter; the CLI's parsing and usage text and the environment
// overlay all come from the rows. The library never reads the environment:
// harnesses and examples call ApplyEnvOverrides(&opt) before building a
// machine, tests do not, so they stay hermetic.
#ifndef MAGESIM_CORE_OPTION_TABLE_H_
#define MAGESIM_CORE_OPTION_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/core/farmem.h"

namespace magesim {

struct OptionRow {
  const char* flag;   // magesim_cli flag, without the leading "--"
  const char* env;    // MAGESIM_* name, or nullptr for a flag-only option
  const char* value;  // usage placeholder; nullptr marks a 0/1 switch
  const char* doc;    // one line, naming the default
  // Parses `text` into *opt; false with *err describing the bad value.
  bool (*set)(std::string_view text, FarMemoryMachine::Options* opt, std::string* err) = nullptr;
};

// Every row, in application order (--spans=0 --spans-top-k=4 still traces).
std::span<const OptionRow> OptionTable();
const OptionRow* FindOption(std::string_view flag);  // nullptr if unknown

// Applies --flag=value to *opt; false with *err naming the flag when the flag
// is unknown or the value malformed or out of range.
bool ApplyOption(std::string_view flag, std::string_view value,
                 FarMemoryMachine::Options* opt, std::string* err);

// Applies every set MAGESIM_* variable to *opt; throws std::invalid_argument
// naming the variable on a malformed value.
void ApplyEnvOverrides(FarMemoryMachine::Options* opt);

// Per row a "  --flag=value   MAGESIM_ENV" line and an indented doc line.
std::string OptionUsage(std::span<const OptionRow> rows = OptionTable());


}  // namespace magesim

#endif  // MAGESIM_CORE_OPTION_TABLE_H_
