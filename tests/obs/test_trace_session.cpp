// TraceSession unit tests: event accounting against the hard cap, the
// drop counter, and the Chrome trace_event JSON shape (the CI
// observability job re-validates the schema on a real mte_prof run).
#include <gtest/gtest.h>

#include <string>

#include "obs/trace_session.hpp"

namespace mte::obs {
namespace {

TEST(TraceSession, RecordsCycleSpansAndCounters) {
  TraceSession trace;
  trace.record_cycle(0, 10, 5, 0);
  trace.record_cycle(1, 8, 5, 2);  // elided > 0 adds the instant event
  EXPECT_EQ(trace.event_count(), 3u + 4u);
  EXPECT_EQ(trace.dropped_events(), 0u);

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"settle\""), std::string::npos);
  EXPECT_NE(json.find("\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"settle_work\""), std::string::npos);
  EXPECT_NE(json.find("\"tick_elision\""), std::string::npos);
  EXPECT_NE(json.find("\"us_per_cycle\":1000"), std::string::npos);
}

TEST(TraceSession, CapCountsDropsInsteadOfGrowing) {
  TraceSession::Options opt;
  opt.max_events = 7;  // room for two plain cycles (3 events each), not three
  TraceSession trace(opt);
  trace.record_cycle(0, 1, 1, 0);
  trace.record_cycle(1, 1, 1, 0);
  EXPECT_EQ(trace.event_count(), 6u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  trace.record_cycle(2, 1, 1, 0);  // needs 3 slots, 1 left -> dropped whole
  EXPECT_EQ(trace.event_count(), 6u);
  EXPECT_EQ(trace.dropped_events(), 3u);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
}

TEST(TraceSession, TransfersOverlayTrack) {
  TraceSession trace;
  trace.add_transfer(3, "ch0", 0, 100);
  trace.add_transfer(4, "ch1", 1, 200);
  EXPECT_EQ(trace.event_count(), 2u);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"ch0\""), std::string::npos);
  EXPECT_NE(json.find("\"ch1\""), std::string::npos);
  EXPECT_NE(json.find("\"tag\":200"), std::string::npos);
}

TEST(TraceSession, DemotionMarksFirstCycleOnly) {
  TraceSession trace;
  trace.record_demotion(17);
  trace.record_demotion(25);  // later demotion reports are ignored
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"demoted_to_naive\""), std::string::npos);
  const std::size_t first = json.find("demoted_to_naive");
  EXPECT_EQ(json.find("demoted_to_naive", first + 1), std::string::npos);
}

TEST(TraceSession, JsonIsDeterministicAcrossIdenticalSessions) {
  const auto build = [] {
    TraceSession t;
    t.record_cycle(0, 4, 2, 1);
    t.add_transfer(0, "out", 0, 9);
    return t.to_json();
  };
  EXPECT_EQ(build(), build());
}

TEST(TraceSession, EmitMetricsPublishesOccupancy) {
  TraceSession::Options opt;
  opt.max_events = 3;
  TraceSession trace(opt);
  trace.record_cycle(0, 1, 1, 0);
  trace.record_cycle(1, 1, 1, 0);  // dropped: only 0 slots left
  MetricsRegistry reg;
  reg.add_source([&trace](MetricsSink& sink) { trace.emit_metrics(sink); });
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.count("trace.events"), 3u);
  EXPECT_EQ(snap.count("trace.dropped"), 3u);
}

}  // namespace
}  // namespace mte::obs
