// The project's whole settable environment: every MPAS_* variable any
// binary reads is one entry of kVariables (name, kind, default, doc), in
// the order of the README's "Environment variables" table, which a test
// in tests/test_util.cpp keeps in step. Code reads a variable only through
// the typed readers below; reading an undeclared name, or as another kind,
// throws mpas::Error. One rule holds for every variable: unset or empty
// means the default; a Flag is on for "1" or "true" and off for "0" or
// "false"; an Integer must parse and lie in [min_value, max_value]; any
// other value warns and keeps the default. The readers look at the
// environment on every call (tests set variables mid-process). The table
// holds only literals, so it is constant-initialized: the logger, the
// event log and the trace recorder read it during static initialization.
// Text reads never warn, which lets the logger read MPAS_LOG_LEVEL while
// it is still being constructed. Grammars such as MPAS_FAULT's and
// MPAS_FLIGHT_DUMP's stay with their owners; to the table they are Text.
#pragma once

#include <climits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mpas::env {

enum class Kind { Flag, Integer, Text };

struct Variable {
  const char* name;
  Kind kind;
  const char* default_value;  // "" = unset: the feature it names is off
  const char* doc;
  long min_value = 0;  // Integer only: the accepted range, inclusive
  long max_value = 0;
};

inline constexpr Variable kVariables[] = {
    {"MPAS_MESH_CACHE", Kind::Text, "mesh_cache", "mesh cache directory"},
    {"MPAS_TRACE", Kind::Text, "",
     "write a Chrome-trace/Perfetto JSON timeline to this file at exit"},
    {"MPAS_METRICS", Kind::Text, "",
     "dump the metrics registry as JSON to this file at exit"},
    {"MPAS_EVENTS", Kind::Text, "",
     "append one JSONL wide event per service decision to this file"},
    {"MPAS_FLIGHT_DUMP", Kind::Text, "",
     "flight-recorder dumps: <dir> = failures and quarantines, "
     "all[:<dir>] = every session"},
    {"MPAS_PROFILE", Kind::Text, "",
     "arm the kernel profiler and write its JSON profile to this file at "
     "exit"},
    {"MPAS_LOG_LEVEL", Kind::Text, "info",
     "logger level: debug, info, warn, error or off"},
    {"MPAS_VERIFY", Kind::Flag, "0",
     "run the data-flow/race battery at model construction"},
    {"MPAS_FAULT", Kind::Text, "", "scripted fault campaign spec"},
    {"MPAS_BENCH_OUT", Kind::Text, "bench_out",
     "default output directory for bench reports"},
    {"MPAS_LOCK_CHECK", Kind::Flag, "0",
     "arm the lock-order deadlock detector"},
    {"MPAS_CHECKPOINT_DIR", Kind::Text, "",
     "durable checkpoint and session-journal directory"},
    {"MPAS_CHECKPOINT_EVERY", Kind::Integer, "10",
     "checkpoint cadence in completed steps", 1, INT_MAX},
    {"MPAS_CHECKPOINT_KEEP", Kind::Integer, "3",
     "checkpoint generations kept per session", 1, INT_MAX},
};

/// A Flag variable: true for "1"/"true", false for "0"/"false" or unset.
bool flag(const char* name);

/// An Integer variable, or its default when unset, malformed or outside
/// its range.
long integer(const char* name);

/// An Integer variable's declared default: what integer() returns while
/// the variable is unset. A struct field that mirrors a variable takes its
/// initializer from here, so the table stays its one source.
long default_integer(const char* name);

/// A Text variable's value; when unset or empty, its default, or nullopt
/// if the default is "".
std::optional<std::string> text(const char* name);

/// Every declared variable with its effective value under the rule above
/// ("1"/"0" for a flag, "" for unset Text without a default), in table
/// order: the configuration a run used.
std::vector<std::pair<std::string, std::string>> resolved();

}  // namespace mpas::env
