// Elaboration: turns an abstract elastic netlist into a live, runnable
// Simulator. A single-thread netlist elaborates to the elastic:: base
// primitives; a multithreaded netlist (after to_multithreaded) elaborates
// to MEBs and M- operators, one switch on the node type per mode. Tokens
// are 64-bit words; function and branch nodes resolve their behaviour
// through a FunctionRegistry by name, and custom nodes resolve their
// hardware through a ComponentFactory by kind.
//
// Besides the boundary source/sink handles, an Elaboration fills the
// channel table: one sim::ChannelRow per channel, in edge order, holding
// the channel's names, persistence flags and S valid/ready wires plus the
// data wire (S = 1 on a single-thread design). Every channel observer
// reads these rows — the ChannelProbe attached to each channel, the
// protocol monitor (attach_monitor), the fault injector (bind_faults),
// mte_prof's trace overlay and VCD — so none of them needs a separate
// single-thread and multithreaded path. probe("node:port") (or
// probe("node") for single-output drivers) exposes per-thread throughput
// and backpressure latency statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "elastic/channel.hpp"
#include "elastic/elastic_buffer.hpp"
#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "mt/meb_variant.hpp"
#include "mt/mt_channel.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "netlist/channel_probe.hpp"
#include "netlist/component_factory.hpp"
#include "netlist/netlist.hpp"
#include "sim/channel_row.hpp"
#include "sim/simulator.hpp"

namespace mte::netlist {

using Word = std::uint64_t;

/// Named behaviours for function and branch nodes.
class FunctionRegistry {
 public:
  void add_fn(const std::string& name, std::function<Word(Word)> fn) {
    fns_[name] = std::move(fn);
  }
  void add_pred(const std::string& name, std::function<bool(Word)> pred) {
    preds_[name] = std::move(pred);
  }

  [[nodiscard]] std::function<Word(Word)> fn(const std::string& name) const;
  [[nodiscard]] std::function<bool(Word)> pred(const std::string& name) const;

  /// id/inc/dec/square/double functions; even/odd/nonzero predicates.
  [[nodiscard]] static FunctionRegistry with_defaults();

 private:
  std::map<std::string, std::function<Word(Word)>> fns_;
  std::map<std::string, std::function<bool(Word)>> preds_;
};

struct ElaborationOptions {
  /// Attach a ChannelProbe to every channel. Probes cost a per-cycle
  /// per-thread observation on each channel; disable for raw simulation
  /// speed measurements.
  bool channel_probes = true;

  /// The settle kernel the elaborated Simulator runs on. Defaults to the
  /// event-driven worklist kernel; select sim::KernelKind::kNaive to run
  /// on the reference kernel (e.g. as the oracle in equivalence tests).
  sim::KernelKind kernel = sim::KernelKind::kEventDriven;

  /// Arbitration policy instantiated in every arbitrated multithreaded
  /// component (MEBs, MtSource). One of the DSE sweep axes.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;

  /// When set, every buffer node of a multithreaded netlist elaborates to
  /// a reduced MEB with this many dynamically shared slots (S main + K
  /// shared) instead of the netlist's full/reduced MEB kind — the
  /// per-stage buffer-capacity axis of the DSE engine. Unset, a reduced
  /// MEB has the paper's single shared slot (K = 1).
  std::optional<std::size_t> meb_shared_slots;
};

/// The elaborated design: owns the simulator and exposes uniform handles —
/// boundary components for workload configuration, per-channel probes for
/// observation, and typed channel/MEB access for detailed inspection.
class Elaboration {
 public:
  /// Elaborates `netlist`; `factory` builds its custom nodes.
  Elaboration(const Netlist& netlist, const FunctionRegistry& registry,
              const ComponentFactory& factory = ComponentFactory::defaults(),
              ElaborationOptions options = {});

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] bool is_multithreaded() const noexcept { return multithreaded_; }

  // Single-thread boundary handles (!is_multithreaded()).
  [[nodiscard]] elastic::Source<Word>& source(const std::string& name);
  [[nodiscard]] elastic::Sink<Word>& sink(const std::string& name);

  // Multithreaded boundary handles (is_multithreaded()).
  [[nodiscard]] mt::MtSource<Word>& mt_source(const std::string& name);
  [[nodiscard]] mt::MtSink<Word>& mt_sink(const std::string& name);

  // --- uniform observation ------------------------------------------------
  // Channels are named after their driving endpoint, "node:port"; the bare
  // node name is accepted whenever the driver has exactly one output.

  /// The channel table: one row per channel, in edge order. Rows stay
  /// valid for the lifetime of this Elaboration.
  [[nodiscard]] const std::vector<sim::ChannelRow>& channel_rows() const noexcept {
    return rows_;
  }

  /// Per-channel statistics: throughput, per-thread rates, backpressure
  /// wait histogram. Works identically for both elaboration modes.
  /// Throws when ElaborationOptions::channel_probes was disabled.
  [[nodiscard]] ChannelProbe& probe(const std::string& channel);

  /// All channel names, in edge order (full "node:port" form).
  [[nodiscard]] std::vector<std::string> channel_names() const;

  /// Convenience: probe(channel).throughput() / .mean_wait().
  [[nodiscard]] double throughput(const std::string& channel);
  [[nodiscard]] double mean_wait(const std::string& channel);

  /// A plain-text table of every channel's tokens, throughput and wait
  /// statistics — ready to print after a run.
  [[nodiscard]] std::string stats_report();

  // Typed channel access, e.g. for timeline observers.
  [[nodiscard]] elastic::Channel<Word>& channel(const std::string& name);
  [[nodiscard]] mt::MtChannel<Word>& mt_channel(const std::string& name);

  /// The MEB elaborated for a buffer node (is_multithreaded() only).
  [[nodiscard]] const mt::AnyMeb<Word>& meb(const std::string& node_name) const;

  // --- runtime robustness -------------------------------------------------
  /// Watches every row of the channel table with `monitor` (handshake
  /// invariants MTE101..MTE104, plus MTE105 token conservation across each
  /// buffer) and attaches it to the simulator. The monitor must outlive the
  /// attachment (or be detached with simulator().set_monitor(nullptr)).
  /// Monitors read settled wires outside the eval phase only: they add
  /// zero settle evaluations and zero ticks.
  void attach_monitor(sim::ProtocolMonitor& monitor);

  /// Binds every row of the channel table into `injector` (by channel
  /// name, same "node:port" scheme as probe()) and attaches it to the
  /// simulator.
  void bind_faults(sim::FaultInjector& injector);

 private:
  /// The one build loop of both modes: makes a channel and its table row
  /// per edge, then builds every node.
  template <typename ChannelT>
  void elaborate(const Netlist& netlist, const FunctionRegistry& registry,
                 const ComponentFactory& factory);
  /// Builds one node: a built-in primitive, or a custom kind through
  /// `factory` (component_factory.cpp).
  void build(const StContext& ctx, const ComponentFactory& factory);
  void build(const MtContext& ctx, const ComponentFactory& factory);
  /// Appends a row (wires only; the constructor fills in the endpoint
  /// names and persistence flags once every node is built).
  void add_row(std::string name, std::span<sim::Wire<bool>> valid,
               std::span<sim::Wire<bool>> ready, sim::Wire<Word>& data,
               const mt::ThreadMask* valid_mask);
  [[nodiscard]] std::size_t row_index(const std::string& name) const;

  sim::Simulator sim_;
  ElaborationOptions options_;
  std::size_t threads_ = 1;
  bool multithreaded_ = false;
  std::map<std::string, elastic::Source<Word>*> sources_;
  std::map<std::string, elastic::Sink<Word>*> sinks_;
  std::map<std::string, mt::MtSource<Word>*> mt_sources_;
  std::map<std::string, mt::MtSink<Word>*> mt_sinks_;
  std::map<std::string, mt::AnyMeb<Word>> mebs_;
  std::map<std::string, elastic::ElasticBuffer<Word>*> buffers_;

  // The channel table, and per row the typed channel (exactly one of st/mt
  // is set, by elaboration mode) and the probe (null when probes are off).
  struct RowHandles {
    elastic::Channel<Word>* st = nullptr;
    mt::MtChannel<Word>* mt = nullptr;
    ChannelProbe* probe = nullptr;
  };
  std::vector<sim::ChannelRow> rows_;
  std::vector<RowHandles> handles_;
  std::unordered_map<std::string, std::size_t> row_of_;  // names + bare-node aliases

  // Each buffer node's in/out channels (token-conservation watch).
  struct BufferIo {
    std::string in_channel;
    std::string out_channel;
  };
  std::map<std::string, BufferIo> buffer_io_;
};

}  // namespace mte::netlist
