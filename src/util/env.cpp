#include "util/env.hpp"

#include <cstdlib>
#include <cstring>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace mpas::env {

namespace {

const Variable& declared(const char* name, Kind kind) {
  for (const Variable& var : kVariables) {
    if (std::strcmp(var.name, name) != 0) continue;
    MPAS_CHECK_MSG(var.kind == kind,
                   name << " is read as another kind than declared");
    return var;
  }
  MPAS_FAIL(name << " is not declared in util/env.hpp");
}

/// The variable's value when set and non-empty; nullptr means the default.
const char* raw(const Variable& var) {
  const char* value = std::getenv(var.name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

}  // namespace

bool flag(const char* name) {
  const Variable& var = declared(name, Kind::Flag);
  const bool fallback = std::strcmp(var.default_value, "1") == 0;
  const char* value = raw(var);
  if (value == nullptr) return fallback;
  if (std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0)
    return true;
  if (std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0)
    return false;
  MPAS_LOG_WARN << name << "='" << value
                << "' is not a flag (1, true, 0 or false); using "
                << var.default_value;
  return fallback;
}

long default_integer(const char* name) {
  return std::strtol(declared(name, Kind::Integer).default_value, nullptr, 10);
}

long integer(const char* name) {
  const Variable& var = declared(name, Kind::Integer);
  const long fallback = default_integer(name);
  const char* value = raw(var);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    MPAS_LOG_WARN << name << "='" << value << "' is not an integer; using "
                  << fallback;
    return fallback;
  }
  if (parsed < var.min_value || parsed > var.max_value) {
    MPAS_LOG_WARN << name << "=" << parsed << " outside [" << var.min_value
                  << ", " << var.max_value << "]; using " << fallback;
    return fallback;
  }
  return parsed;
}

std::optional<std::string> text(const char* name) {
  const Variable& var = declared(name, Kind::Text);
  if (const char* value = raw(var)) return std::string(value);
  if (*var.default_value != '\0') return std::string(var.default_value);
  return std::nullopt;
}

namespace {

/// The value a read of `var` returns, as text ("1"/"0" for a flag).
std::string effective(const Variable& var) {
  switch (var.kind) {
    case Kind::Flag:
      return flag(var.name) ? "1" : "0";
    case Kind::Integer:
      return std::to_string(integer(var.name));
    case Kind::Text:
      return text(var.name).value_or("");
  }
  return {};
}

}  // namespace

std::vector<std::pair<std::string, std::string>> resolved() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Variable& var : kVariables)
    out.emplace_back(var.name, effective(var));
  return out;
}

}  // namespace mpas::env
