#include "obs/trace_session.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "obs/json_escape.hpp"

namespace mte::obs {
namespace {

// Virtual timebase: one simulated cycle renders as 1000 µs of trace
// time, split 600/400 between the settle and commit phases — wide enough
// that Perfetto renders per-cycle structure without zooming to nothing.
constexpr std::uint64_t kUsPerCycle = 1000;
constexpr std::uint64_t kSettleUs = 600;

}  // namespace

TraceSession::TraceSession(Options options) : options_(options) {}

bool TraceSession::reserve(std::size_t n) noexcept {
  if (used_ + n > options_.max_events) {
    dropped_ += n;
    return false;
  }
  used_ += n;
  return true;
}

void TraceSession::record_cycle(std::uint64_t cycle, std::uint64_t evals,
                                std::uint64_t ticks, std::uint64_t elided) {
  // settle span + commit span + settle_work counter (+ elision instant).
  const std::size_t n = 3 + (elided > 0 ? 1 : 0);
  if (!reserve(n)) return;
  cycles_.push_back(CycleRow{cycle, evals, ticks, elided});
}

void TraceSession::record_demotion(std::uint64_t cycle) {
  if (demoted_) return;  // demotion is permanent; first cycle wins
  if (!reserve(1)) return;
  demoted_ = true;
  demoted_cycle_ = cycle;
}

void TraceSession::add_transfer(std::uint64_t cycle, std::string_view channel,
                                int thread, std::uint64_t tag) {
  if (!reserve(1)) return;
  transfers_.push_back(TransferRow{cycle, std::string(channel), thread, tag});
}

std::size_t TraceSession::event_count() const noexcept { return used_; }

void TraceSession::emit_metrics(MetricsSink& sink) const {
  sink.counter("trace.events", used_, MetricCategory::kKernel);
  sink.counter("trace.dropped", dropped_, MetricCategory::kKernel);
}

std::string TraceSession::to_json() const {
  std::string out;
  out.reserve(128 + used_ * 96);
  out += "{\"traceEvents\":[";
  char buf[256];

  // Fixed metadata: name the virtual threads (not counted against the cap).
  const struct {
    int tid;
    const char* name;
  } kThreads[] = {{1, "phase"}, {2, "activity"}, {3, "transfers"}};
  bool first = true;
  for (const auto& t : kThreads) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  t.tid, t.name);
    out += buf;
  }

  for (const CycleRow& c : cycles_) {
    const std::uint64_t ts = c.cycle * kUsPerCycle;
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"settle\","
                  "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                  ",\"args\":{\"cycle\":%" PRIu64 ",\"evals\":%" PRIu64 "}}",
                  ts, kSettleUs, c.cycle, c.evals);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"commit\","
                  "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                  ",\"args\":{\"cycle\":%" PRIu64 ",\"ticks\":%" PRIu64 "}}",
                  ts + kSettleUs, kUsPerCycle - kSettleUs, c.cycle, c.ticks);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"C\",\"pid\":1,\"tid\":2,\"name\":\"settle_work\","
                  "\"ts\":%" PRIu64 ",\"args\":{\"evals\":%" PRIu64 "}}",
                  ts, c.evals);
    out += buf;
    if (c.elided > 0) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"name\":\"tick_elision\","
                    "\"ts\":%" PRIu64 ",\"s\":\"t\",\"args\":{\"elided\":%" PRIu64
                    "}}",
                    ts + kSettleUs, c.elided);
      out += buf;
    }
  }

  if (demoted_) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"name\":\"demoted_to_naive\","
                  "\"ts\":%" PRIu64 ",\"s\":\"p\",\"args\":{\"cycle\":%" PRIu64 "}}",
                  demoted_cycle_ * kUsPerCycle, demoted_cycle_);
    out += buf;
  }

  for (const TransferRow& t : transfers_) {
    out += ",{\"ph\":\"i\",\"pid\":1,\"tid\":3,\"name\":\"";
    append_json_escaped(out, t.channel);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ts\":%" PRIu64 ",\"s\":\"t\",\"args\":{\"thread\":%d,"
                  "\"tag\":%" PRIu64 "}}",
                  t.cycle * kUsPerCycle + kSettleUs, t.thread, t.tag);
    out += buf;
  }

  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"us_per_cycle\":%" PRIu64 ",\"dropped_events\":%" PRIu64 "}}\n",
                kUsPerCycle, dropped_);
  out += buf;
  return out;
}

bool TraceSession::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  const std::string json = to_json();
  os.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(os);
}

}  // namespace mte::obs
