// ProtocolMonitor: opt-in runtime checker for the SELF elastic handshake
// contract on watched channels.
//
// The static analyzer (analysis/, MTE0xx) proves properties of the netlist
// *structure*; the kernel-equivalence suite proves both kernels agree; but
// neither enforces that components actually honour the handshake at
// runtime — a contract-violating component that happens to agree across
// both kernels sails through every other gate. The monitor closes that
// hole: it reads the settled wire state once per cycle (from the observer
// phase, before the clock edge) and checks the invariants the paper's
// multithreaded elastic buffers rely on:
//
//   MTE101  valid retracted while stalled — on persistent-valid channels
//           (elastic-buffer outputs, whose valid derives from buffer
//           occupancy and drops only by a completed transfer) valid must
//           hold until the transfer is accepted. Rate-gated sources and
//           arbitrated MEB outputs may legally withdraw an offer (the
//           Bernoulli gate closes; the arbiter rotates to another
//           thread), so the check is per-channel opt-in like MTE103.
//   MTE102  data changed while stalled — while the SAME endpoint stays
//           valid across a stall, the data word must be stable (checked
//           everywhere: a withdrawn-then-reoffered token is exempt).
//   MTE103  ready retracted without a transfer — on persistent-ready
//           channels (elastic-buffer and full-MEB inputs, whose
//           can_accept drops only by accepting) ready may not fall
//           spontaneously. Reduced MEB inputs share slots across
//           threads, so a peer thread's accept may retract this thread's
//           ready — those channels are not persistent-ready.
//   MTE104  multiple active threads — an MT channel may assert at most
//           one thread's valid per cycle (the shared data word is
//           meaningless otherwise).
//   MTE105  token conservation violated across a MEB — occupancy must
//           change exactly by (input transfers - output transfers).
//   MTE110  no-progress watchdog (raised by Simulator::set_watchdog using
//           this monitor's transfer count as the progress signal).
//
// The monitor watches rows of the channel table (sim/channel_row.hpp;
// Elaboration::attach_monitor watches every row): one watch() for single-
// thread and multithreaded channels alike, reading the row's valid, ready
// and data wires directly.
//
// The monitor is a pull-based Simulator attachment (the same pattern as
// obs::PhaseProfiler / obs::TraceSession, and deliberately NOT a
// Component): when detached it costs nothing, and when attached it adds
// zero settle evaluations and zero ticks — it only reads wires outside
// the eval phase, where Wire::get() records no sensitivity.
//
// Violations reuse the analysis::Diagnostic locus scheme (code, component,
// port) so runtime and static findings speak the same language.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/channel_row.hpp"
#include "sim/types.hpp"

namespace mte::obs {
class TraceSession;
}  // namespace mte::obs

namespace mte::sim {

/// One runtime handshake-contract violation, with the same locus scheme
/// as analysis::Diagnostic (code + component + port).
struct ProtocolViolation {
  std::string code;       ///< "MTE101".."MTE105"
  std::string channel;    ///< watched channel name, e.g. "src:0"
  std::string component;  ///< locus component (producer or consumer node)
  std::string port;       ///< locus port, e.g. "out0"
  int thread = -1;        ///< MT thread index, -1 on single-threaded channels
  Cycle cycle = 0;        ///< cycle at which the violation was observed
  std::string message;

  /// "MTE101 cycle 12 channel 'src:0' [component 'src' port 'out0']: ..."
  [[nodiscard]] std::string format() const;
};

class ProtocolMonitor {
 public:
  /// Watches one channel of the table: MTE101..MTE103 on every thread,
  /// plus MTE104 (single active thread) on a multithreaded row. The row's
  /// persistence flags enable MTE101/MTE103; its data wire is read once
  /// per cycle for MTE102. The row must outlive the monitor's use of it.
  void watch(const ChannelRow& row);

  /// Watches token conservation across a buffer: `occupancy` is compared
  /// against the net transfer count of the (already watched) input and
  /// output channels. Call after watching both channels.
  void watch_conservation(const std::string& component,
                          const std::string& in_channel,
                          const std::string& out_channel,
                          std::function<int()> occupancy);

  /// Runs all checks against the settled state of cycle `now`. Invoked by
  /// the Simulator once per step, after the observers and before the
  /// clock edge (so a violating cycle is recorded even if the commit
  /// phase subsequently throws ProtocolError).
  void on_cycle(Cycle now);

  /// Forgets all per-cycle state and recorded violations (watched
  /// channels stay watched). Simulator::reset and Simulator::restore call
  /// this: monitor state is scratch, like the profiler's.
  void reset();

  [[nodiscard]] const std::vector<ProtocolViolation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t watched_channels() const noexcept {
    return channels_.size();
  }

  /// Total transfers observed on watched channels since reset — the
  /// watchdog's progress signal.
  [[nodiscard]] std::uint64_t transfer_count() const noexcept { return transfers_; }

  /// All recorded violations, one formatted line each.
  [[nodiscard]] std::string report() const;

  /// Wait-for-graph diagnosis over the watched channels' current state:
  /// a backpressured channel (valid && !ready) makes its producer wait on
  /// its consumer; a starved channel (no valid) makes its consumer wait
  /// on its producer. Names a wait cycle when one exists, otherwise the
  /// longest-waiting edges. `idle` is the number of cycles without a
  /// transfer (for the header line).
  [[nodiscard]] std::string diagnose_stall(Cycle now, Cycle idle) const;

  /// Replays the trailing transfer window (most recent transfers on
  /// watched channels) into a TraceSession — the post-mortem bundle's
  /// Chrome-trace tail.
  void export_trace_tail(obs::TraceSession& trace) const;

 private:
  struct ThreadState {
    bool valid = false;
    bool ready = false;
    bool fired = false;
    std::uint64_t data = 0;
  };
  struct WatchedChannel {
    const ChannelRow* row = nullptr;
    bool has_prev = false;
    std::vector<ThreadState> prev;
    std::uint64_t fired_now = 0;  // transfers observed this on_cycle
    bool ever_fired = false;
    Cycle last_fire = 0;
  };
  struct ConservationWatch {
    std::string component;
    std::size_t in_index = 0;
    std::size_t out_index = 0;
    std::function<int()> occupancy;
    bool has_prev = false;
    int prev_occupancy = 0;
    std::uint64_t prev_in_fired = 0;
    std::uint64_t prev_out_fired = 0;
  };
  struct TraceEvent {
    Cycle cycle = 0;
    std::size_t channel = 0;  // index into channels_
    int thread = -1;
    std::uint64_t data = 0;
  };

  void record(const WatchedChannel& ch, const char* code, int thread,
              Cycle cycle, std::string message);

  std::vector<WatchedChannel> channels_;
  std::map<std::string, std::size_t> by_name_;
  std::vector<ConservationWatch> conservation_;
  std::vector<ProtocolViolation> violations_;
  std::size_t max_violations_ = 256;
  std::uint64_t dropped_violations_ = 0;
  std::uint64_t transfers_ = 0;
  std::deque<TraceEvent> tail_;
  std::size_t tail_capacity_ = 512;
};

}  // namespace mte::sim
