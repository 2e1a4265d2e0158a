// TraceSession: Chrome trace_event JSON export of a simulation run.
//
// Produces a JSON object loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, on a virtual timebase of 1 cycle = 1000 µs:
//
//   tid 1 "phase"      per-cycle "settle" and "commit" complete spans
//                      (ph "X"), args carrying that cycle's dispatched
//                      evals/ticks.
//   tid 2 "activity"   "settle_work" counter track (ph "C") and
//                      "tick_elision" instants (ph "i") on cycles where
//                      the event kernel elided commits; a
//                      "demoted_to_naive" instant if the kernel demoted.
//   tid 3 "transfers"  completed handshakes, added per transfer with
//                      add_transfer (mte_prof's overlay reads the channel
//                      table once per cycle; the watchdog replays the
//                      monitor's tail), as instants named after the
//                      channel, args carrying thread and tag.
//
// The session is BOUNDED: a hard event cap (Options::max_events, default
// 1M) guards million-token runs; past the cap events are counted into
// dropped_events() and the JSON reports the drop in otherData. The
// per-cycle hooks fire from Simulator::step() when a session is attached
// (Simulator::set_trace).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace mte::obs {

class TraceSession {
 public:
  struct Options {
    std::size_t max_events = 1'000'000;  ///< hard cap on emitted JSON events
  };

  TraceSession() : TraceSession(Options{}) {}
  explicit TraceSession(Options options);

  /// Per-cycle hook (called by Simulator::step): this cycle's dispatched
  /// evals, ticks, and elided ticks. Expands to the phase spans and
  /// activity events described above.
  void record_cycle(std::uint64_t cycle, std::uint64_t evals, std::uint64_t ticks,
                    std::uint64_t elided);

  /// Marks the cycle where the event kernel demoted to the naive order.
  void record_demotion(std::uint64_t cycle);

  /// One completed transfer on the overlay track.
  void add_transfer(std::uint64_t cycle, std::string_view channel, int thread,
                    std::uint64_t tag);

  /// JSON events emitted so far (excluding the fixed metadata events).
  [[nodiscard]] std::size_t event_count() const noexcept;
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }

  /// Publishes trace.events / trace.dropped (kernel category).
  void emit_metrics(MetricsSink& sink) const;

  /// The complete trace JSON ({"traceEvents":[...],...}).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  struct CycleRow {
    std::uint64_t cycle = 0;
    std::uint64_t evals = 0;
    std::uint64_t ticks = 0;
    std::uint64_t elided = 0;
  };
  struct TransferRow {
    std::uint64_t cycle = 0;
    std::string channel;
    int thread = 0;
    std::uint64_t tag = 0;
  };

  /// Reserves `n` event slots against the cap; false (and counts the
  /// drop) when the cap is exhausted.
  [[nodiscard]] bool reserve(std::size_t n) noexcept;

  Options options_;
  std::size_t used_ = 0;       // JSON events committed against the cap
  std::uint64_t dropped_ = 0;  // events rejected by the cap
  std::vector<CycleRow> cycles_;
  std::vector<TransferRow> transfers_;
  std::uint64_t demoted_cycle_ = 0;
  bool demoted_ = false;
};

}  // namespace mte::obs
