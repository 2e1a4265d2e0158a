// MetricsRegistry unit tests: pull semantics, category filtering and
// fixed renderer formats. The determinism and
// no-observer-effect contracts against a live simulator are covered by
// test_obs_integration.cpp.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace mte::obs {
namespace {

TEST(MetricsRegistry, SourcesRunOnlyAtSnapshotTime) {
  MetricsRegistry reg;
  int calls = 0;
  reg.add_source([&calls](MetricsSink& sink) {
    ++calls;
    sink.counter("a.count", 7);
  });
  EXPECT_EQ(calls, 0);  // pull model: registration costs nothing
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(snap.count("a.count"), 7u);
}

TEST(MetricsRegistry, DefaultMaskExcludesTimingRows) {
  MetricsRegistry reg;
  reg.add_source([](MetricsSink& sink) {
    sink.counter("stable.semantic", 1, MetricCategory::kSemantic);
    sink.counter("stable.kernel", 2, MetricCategory::kKernel);
    sink.gauge("volatile.seconds", 0.5, MetricCategory::kTiming);
  });
  const MetricsSnapshot stable = reg.snapshot();
  EXPECT_NE(stable.find("stable.semantic"), nullptr);
  EXPECT_NE(stable.find("stable.kernel"), nullptr);
  EXPECT_EQ(stable.find("volatile.seconds"), nullptr);

  const MetricsSnapshot all = reg.snapshot(kAllCategories);
  EXPECT_NE(all.find("volatile.seconds"), nullptr);

  const MetricsSnapshot semantic = reg.snapshot(kSemanticOnly);
  EXPECT_NE(semantic.find("stable.semantic"), nullptr);
  EXPECT_EQ(semantic.find("stable.kernel"), nullptr);
}

TEST(MetricsSnapshot, RowsSortByNameAndRenderFixedFormats) {
  MetricsRegistry reg;
  reg.add_source([](MetricsSink& sink) {
    sink.gauge("b.gauge", 1.5);
    sink.counter("a.count", 42);
  });
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.rows().size(), 2u);
  EXPECT_EQ(snap.rows()[0].name, "a.count");
  EXPECT_EQ(snap.rows()[1].name, "b.gauge");
  // Counters render as plain integers, gauges at %.6f — the fixed formats
  // the byte-identity contract rests on.
  EXPECT_EQ(snap.to_csv(),
            "name,category,value\n"
            "a.count,semantic,42\n"
            "b.gauge,semantic,1.500000\n");
  EXPECT_EQ(snap.to_json(),
            "{\"metrics\":[{\"name\":\"a.count\",\"category\":\"semantic\","
            "\"value\":42},{\"name\":\"b.gauge\",\"category\":\"semantic\","
            "\"value\":1.500000}]}\n");
}

TEST(MetricsSnapshot, JsonEscapesControlBytesInNames) {
  MetricsRegistry reg;
  reg.add_source([](MetricsSink& sink) {
    sink.counter(std::string("q\"b\\s\rn\nt\tc\x01", 12), 7);
  });
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\"metrics\":[{\"name\":\"q\\\"b\\\\s\\rn\\nt\\tc\\u0001\","
            "\"category\":\"semantic\",\"value\":7}]}\n");
}

TEST(MetricsSnapshot, AccessorsReturnZeroForMissingRows) {
  const MetricsSnapshot snap({});
  EXPECT_EQ(snap.find("nope"), nullptr);
  EXPECT_EQ(snap.count("nope"), 0u);
  EXPECT_EQ(snap.value("nope"), 0.0);
}

TEST(MetricsSnapshot, TableListsEveryRow) {
  MetricsRegistry reg;
  reg.add_source([](MetricsSink& sink) {
    sink.counter("sim.cycles", 100);
    sink.gauge("sim.settle_work", 321.0, MetricCategory::kKernel);
  });
  const std::string table = reg.snapshot().to_table();
  EXPECT_NE(table.find("sim.cycles"), std::string::npos);
  EXPECT_NE(table.find("sim.settle_work"), std::string::npos);
  EXPECT_NE(table.find("kernel"), std::string::npos);
}

}  // namespace
}  // namespace mte::obs
