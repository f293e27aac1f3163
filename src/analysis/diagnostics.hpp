// Structured diagnostics for the schedule & data-flow verifier.
//
// Every checker (graph-level static checks, the access-set replay, the
// lock-order checker) reports through the same Diagnostic/Report types so
// tests, the verify_dataflow CLI, and the MPAS_VERIFY=1 model guard can all
// consume one format: a severity, a stable machine-readable code, the node
// ids and field name involved, and a human message.
#pragma once

#include <string>
#include <vector>

namespace mpas::analysis {

enum class Severity : int { Info = 0, Warning = 1, Error = 2 };

const char* to_string(Severity s);

/// One finding. `code` is a stable kebab-case identifier tests key on
/// ("missing-edge", "halo-depth", "undeclared-write", "undeclared-access",
/// "lock-cycle", ...). `node`/`other_node` are data-flow node ids (or -1);
/// `field` names the variable involved (or empty).
struct Diagnostic {
  Severity severity = Severity::Error;
  std::string code;
  int node = -1;
  int other_node = -1;
  std::string field;
  std::string message;
};

/// An append-only collection of findings with severity accounting.
class Report {
 public:
  void add(Diagnostic d);
  void merge(const Report& other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  [[nodiscard]] int count(Severity s) const;
  [[nodiscard]] int errors() const { return count(Severity::Error); }
  [[nodiscard]] int warnings() const { return count(Severity::Warning); }
  [[nodiscard]] bool clean() const { return errors() == 0; }

  /// Number of findings carrying the given code (at any severity).
  [[nodiscard]] int count_code(const std::string& code) const;
  [[nodiscard]] bool has_code(const std::string& code) const {
    return count_code(code) > 0;
  }

  /// One "severity [code] message" line per finding.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace mpas::analysis
