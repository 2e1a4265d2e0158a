// Structured diagnostics for the static netlist analyzer.
//
// Every finding carries a stable code (MTExxx — the contract tests, CI
// and external tooling key on it), a severity, a component/port locus, a
// human-readable message and a fix-it hint. Reports order their
// diagnostics deterministically (code, component, port, message) so
// golden-file tests and diffs are stable across runs and platforms, and
// render to plain text or JSON.
//
// Code ranges (the reference table lives in README.md):
//   MTE00x  structural wiring (ports, drivers, names, edge refs)
//   MTE01x  liveness (dead components off every source->sink path)
//   MTE02x  combinational valid/ready cycles (static form of what the
//           event kernel discovers via Tarjan-SCC and demotion)
//   MTE03x  structural deadlock / token-imbalance stalls
//   MTE04x  arbiter & capacity sanity (threads, reduced-MEB pool, rates)
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mte::analysis {

enum class Severity {
  kNote,     ///< worth knowing; never fails a build or lint run
  kWarning,  ///< likely a performance or robustness problem
  kError,    ///< the netlist is broken; CircuitBuilder::build() refuses it
};

[[nodiscard]] const char* to_string(Severity severity) noexcept;

struct Diagnostic {
  std::string code;       ///< stable identifier, e.g. "MTE021"
  Severity severity = Severity::kError;
  std::string component;  ///< primary node name (empty: netlist-level)
  std::string port;       ///< "out0" / "in1" when port-granular, else empty
  std::string message;    ///< what is wrong, with the nodes involved
  std::string hint;       ///< how to fix it (may be empty)
};

/// Deterministic ordering used by AnalysisReport: by code, then
/// component, then port, then message.
[[nodiscard]] bool diagnostic_order(const Diagnostic& a, const Diagnostic& b);

/// The analyzer's result: diagnostics in deterministic order plus
/// severity tallies and the two renderers.
class AnalysisReport {
 public:
  AnalysisReport() = default;
  explicit AnalysisReport(std::vector<Diagnostic> diagnostics);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t count() const noexcept { return diagnostics_.size(); }
  [[nodiscard]] std::size_t count(Severity severity) const noexcept;
  [[nodiscard]] std::size_t error_count() const noexcept {
    return count(Severity::kError);
  }
  [[nodiscard]] std::size_t warning_count() const noexcept {
    return count(Severity::kWarning);
  }
  [[nodiscard]] std::size_t note_count() const noexcept {
    return count(Severity::kNote);
  }
  [[nodiscard]] bool has_errors() const noexcept { return error_count() > 0; }

  /// Diagnostics of one severity, in report order.
  [[nodiscard]] std::vector<Diagnostic> by_severity(Severity severity) const;

  /// Plain-text rendering: one `severity[CODE] locus: message` line per
  /// diagnostic (indented `hint:` line when present), then a summary.
  [[nodiscard]] std::string render_text() const;

  /// JSON rendering (schema version 1):
  ///   {"version":1, "errors":N, "warnings":N, "notes":N,
  ///    "diagnostics":[{"code","severity","component","port",
  ///                    "message","hint"}, ...]}
  [[nodiscard]] std::string render_json() const;

 private:
  std::vector<Diagnostic> diagnostics_;  // kept sorted by diagnostic_order
};

/// SARIF 2.1.0 rendering of a batch of named reports as one run: stable
/// rule ids are the MTE codes (collected, deduplicated and sorted into
/// tool.driver.rules), severities map onto SARIF levels, and each
/// diagnostic's component/port locus becomes a logicalLocation whose
/// fullyQualifiedName is "<input>/<component>[:<port>]". Deterministic
/// for golden and schema-shape tests.
[[nodiscard]] std::string render_sarif(
    const std::vector<std::pair<std::string, AnalysisReport>>& inputs);

}  // namespace mte::analysis
