#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "obs/json_escape.hpp"

namespace mte::analysis {

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

bool diagnostic_order(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.code, a.component, a.port, a.message) <
         std::tie(b.code, b.component, b.port, b.message);
}

AnalysisReport::AnalysisReport(std::vector<Diagnostic> diagnostics)
    : diagnostics_(std::move(diagnostics)) {
  std::sort(diagnostics_.begin(), diagnostics_.end(), diagnostic_order);
}

std::size_t AnalysisReport::count(Severity severity) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [severity](const Diagnostic& d) { return d.severity == severity; }));
}

std::vector<Diagnostic> AnalysisReport::by_severity(Severity severity) const {
  std::vector<Diagnostic> out;
  for (const auto& d : diagnostics_) {
    if (d.severity == severity) out.push_back(d);
  }
  return out;
}

std::string AnalysisReport::render_text() const {
  std::ostringstream os;
  for (const auto& d : diagnostics_) {
    os << to_string(d.severity) << '[' << d.code << ']';
    if (!d.component.empty()) {
      os << ' ' << d.component;
      if (!d.port.empty()) os << ' ' << d.port;
    }
    os << ": " << d.message << '\n';
    if (!d.hint.empty()) os << "  hint: " << d.hint << '\n';
  }
  if (diagnostics_.empty()) {
    os << "no diagnostics\n";
  } else {
    os << error_count() << " error(s), " << warning_count() << " warning(s), "
       << note_count() << " note(s)\n";
  }
  return os.str();
}

namespace {

/// SARIF level for a severity; the repo's names happen to coincide with
/// SARIF's ("note"/"warning"/"error"), but keep the mapping explicit.
const char* sarif_level(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string render_sarif(
    const std::vector<std::pair<std::string, AnalysisReport>>& inputs) {
  // Rule table: every distinct code, sorted (std::set iterates sorted).
  std::set<std::string> codes;
  for (const auto& [name, report] : inputs) {
    for (const auto& d : report.diagnostics()) codes.insert(d.code);
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  os << "  \"version\": \"2.1.0\",\n";
  os << "  \"runs\": [\n";
  os << "    {\n";
  os << "      \"tool\": {\n";
  os << "        \"driver\": {\n";
  os << "          \"name\": \"mte_lint\",\n";
  os << "          \"rules\": [";
  bool first = true;
  for (const auto& code : codes) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "            {\"id\": \"" << obs::json_escape(code)
       << "\", \"shortDescription\": {\"text\": \"" << obs::json_escape(code)
       << " (see the MTE code table in README.md)\"}}";
  }
  if (!codes.empty()) os << "\n          ";
  os << "]\n";
  os << "        }\n";
  os << "      },\n";
  os << "      \"results\": [";
  first = true;
  for (const auto& [name, report] : inputs) {
    for (const auto& d : report.diagnostics()) {
      std::string text = d.message;
      if (!d.hint.empty()) text += "\nhint: " + d.hint;
      std::string fqn = name + "/" + (d.component.empty() ? "<netlist>" : d.component);
      if (!d.port.empty()) fqn += ":" + d.port;
      os << (first ? "\n" : ",\n");
      first = false;
      os << "        {\n";
      os << "          \"ruleId\": \"" << obs::json_escape(d.code) << "\",\n";
      os << "          \"level\": \"" << sarif_level(d.severity) << "\",\n";
      os << "          \"message\": {\"text\": \"" << obs::json_escape(text) << "\"},\n";
      os << "          \"locations\": [\n";
      os << "            {\n";
      os << "              \"logicalLocations\": [\n";
      os << "                {\"name\": \""
         << obs::json_escape(d.component.empty() ? name : d.component)
         << "\", \"fullyQualifiedName\": \"" << obs::json_escape(fqn)
         << "\", \"kind\": \"element\"}\n";
      os << "              ]\n";
      os << "            }\n";
      os << "          ]\n";
      os << "        }";
    }
  }
  if (!first) os << "\n      ";
  os << "]\n";
  os << "    }\n";
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string AnalysisReport::render_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": 1,\n";
  os << "  \"errors\": " << error_count() << ",\n";
  os << "  \"warnings\": " << warning_count() << ",\n";
  os << "  \"notes\": " << note_count() << ",\n";
  os << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"code\": \"" << obs::json_escape(d.code) << "\",\n";
    os << "      \"severity\": \"" << to_string(d.severity) << "\",\n";
    os << "      \"component\": \"" << obs::json_escape(d.component) << "\",\n";
    os << "      \"port\": \"" << obs::json_escape(d.port) << "\",\n";
    os << "      \"message\": \"" << obs::json_escape(d.message) << "\",\n";
    os << "      \"hint\": \"" << obs::json_escape(d.hint) << "\"\n";
    os << "    }";
  }
  if (!diagnostics_.empty()) os << "\n  ";
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace mte::analysis
