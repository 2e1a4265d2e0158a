// Unit tests for the diagnostic value types: deterministic ordering,
// severity counters, and the text / JSON renderers (including string
// escaping — fixture goldens cover the composed output, these pin the
// primitives).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "obs/json_escape.hpp"

namespace {

using namespace mte::analysis;

Diagnostic diag(std::string code, Severity sev, std::string component = "",
                std::string port = "", std::string message = "m",
                std::string hint = "") {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = sev;
  d.component = std::move(component);
  d.port = std::move(port);
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

TEST(Diagnostics, SeverityToString) {
  EXPECT_STREQ(to_string(Severity::kNote), "note");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kError), "error");
}

TEST(Diagnostics, ReportSortsByCodeThenLocus) {
  // Deliberately shuffled: the report sorts by code (codes group related
  // checks, so this interleaves severities deterministically), ties
  // broken by component then port.
  const AnalysisReport report({
      diag("MTE043", Severity::kNote),
      diag("MTE010", Severity::kWarning, "zz"),
      diag("MTE010", Severity::kWarning, "aa"),
      diag("MTE001", Severity::kError, "n", "out1"),
      diag("MTE001", Severity::kError, "n", "out0"),
      diag("MTE020", Severity::kError, "m"),
  });
  const auto& d = report.diagnostics();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0].code, "MTE001");
  EXPECT_EQ(d[0].port, "out0");
  EXPECT_EQ(d[1].code, "MTE001");
  EXPECT_EQ(d[1].port, "out1");
  EXPECT_EQ(d[2].component, "aa");
  EXPECT_EQ(d[3].component, "zz");
  EXPECT_EQ(d[4].code, "MTE020");
  EXPECT_EQ(d[5].code, "MTE043");
}

TEST(Diagnostics, OrderingIsTotalOnEqualSeverity) {
  const Diagnostic a = diag("MTE010", Severity::kWarning, "a", "", "first");
  const Diagnostic b = diag("MTE010", Severity::kWarning, "a", "", "second");
  EXPECT_TRUE(diagnostic_order(a, b));
  EXPECT_FALSE(diagnostic_order(b, a));
  EXPECT_FALSE(diagnostic_order(a, a));
}

TEST(Diagnostics, Counters) {
  const AnalysisReport report({
      diag("MTE001", Severity::kError),
      diag("MTE010", Severity::kWarning),
      diag("MTE011", Severity::kWarning),
      diag("MTE043", Severity::kNote),
  });
  EXPECT_EQ(report.count(), 4u);
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_EQ(report.warning_count(), 2u);
  EXPECT_EQ(report.note_count(), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(report.by_severity(Severity::kWarning).size(), 2u);

  const AnalysisReport empty;
  EXPECT_FALSE(empty.has_errors());
  EXPECT_EQ(empty.count(), 0u);
}

TEST(Diagnostics, RenderTextFormat) {
  const AnalysisReport report({
      diag("MTE001", Severity::kError, "b0", "out0", "port is unconnected",
           "connect it"),
  });
  EXPECT_EQ(report.render_text(),
            "error[MTE001] b0 out0: port is unconnected\n"
            "  hint: connect it\n"
            "1 error(s), 0 warning(s), 0 note(s)\n");
}

TEST(Diagnostics, RenderTextOmitsEmptyLocusAndHint) {
  const AnalysisReport report({
      diag("MTE042", Severity::kNote, "", "", "pool of K = 0 slots"),
  });
  EXPECT_EQ(report.render_text(),
            "note[MTE042]: pool of K = 0 slots\n"
            "0 error(s), 0 warning(s), 1 note(s)\n");
}

TEST(Diagnostics, RenderTextEmpty) {
  const AnalysisReport report;
  EXPECT_EQ(report.render_text(), "no diagnostics\n");
}

TEST(Diagnostics, RenderJsonStructureAndCounts) {
  const AnalysisReport report({
      diag("MTE004", Severity::kError, "snk", "in0", "2 drivers", "add a merge"),
      diag("MTE031", Severity::kWarning, "j", "", "unbalanced"),
  });
  const std::string json = report.render_json();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"notes\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"MTE004\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"port\": \"in0\""), std::string::npos);
  EXPECT_NE(json.find("\"hint\": \"add a merge\""), std::string::npos);
  // Code order is preserved in the array.
  EXPECT_LT(json.find("MTE004"), json.find("MTE031"));
}

TEST(Diagnostics, JsonEscaping) {
  using mte::obs::json_escape;
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
}

}  // namespace
