// ComponentFactory: the registry of custom node kinds.
//
// Elaboration builds every built-in NodeType itself — the paper's
// synthesis correspondence (EB -> full or reduced MEB, join -> M-Join,
// fork -> M-Fork, ...) as one switch per elaboration mode. kCustom nodes
// resolve by their kind string through this registry instead, so
// downstream code can introduce new primitives (barriers,
// pattern-latency servers, ...) without touching this library:
//
//   netlist::ComponentFactory factory;
//   factory.register_custom_mt("barrier", [&](const MtContext& ctx) {
//     ctx.sim.make<mt::Barrier<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
//                                     ctx.out(0));
//   });
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "elastic/channel.hpp"
#include "mt/meb_variant.hpp"
#include "mt/mt_channel.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"

namespace mte::netlist {

using Word = std::uint64_t;

class FunctionRegistry;

class ElaborationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Channel lookup keyed by (node id, port) on each side of an edge.
template <typename ChannelT>
struct PortMap {
  std::map<std::pair<std::size_t, unsigned>, ChannelT*> out;  // driver side
  std::map<std::pair<std::size_t, unsigned>, ChannelT*> in;   // consumer side

  [[nodiscard]] ChannelT& output_of(const Node& n, unsigned port) const {
    const auto it = out.find({n.id, port});
    if (it == out.end()) {
      throw ElaborationError("node '" + n.name + "' output " +
                             std::to_string(port) + " unconnected");
    }
    return *it->second;
  }

  [[nodiscard]] ChannelT& input_of(const Node& n, unsigned port) const {
    const auto it = in.find({n.id, port});
    if (it == in.end()) {
      throw ElaborationError("node '" + n.name + "' input " +
                             std::to_string(port) + " undriven");
    }
    return *it->second;
  }
};

/// Everything a node builder may need, in either elaboration mode.
/// in()/out() resolve the node's ports to the elaborated channels:
/// elastic::Channel on a single-thread design, mt::MtChannel on a
/// multithreaded one.
template <typename ChannelT>
struct NodeContext {
  sim::Simulator& sim;
  const Netlist& netlist;
  const Node& node;
  const FunctionRegistry& registry;
  const PortMap<ChannelT>& ports;

  /// Thread count S (1 on a single-thread design).
  [[nodiscard]] std::size_t threads() const noexcept { return netlist.threads(); }
  [[nodiscard]] mt::MebKind meb_kind() const noexcept { return netlist.meb_kind(); }
  [[nodiscard]] ChannelT& in(unsigned port = 0) const {
    return ports.input_of(node, port);
  }
  [[nodiscard]] ChannelT& out(unsigned port = 0) const {
    return ports.output_of(node, port);
  }
};

using StContext = NodeContext<elastic::Channel<Word>>;
using MtContext = NodeContext<mt::MtChannel<Word>>;

class ComponentFactory {
 public:
  template <typename ChannelT>
  using Builder = std::function<void(const NodeContext<ChannelT>&)>;
  using StBuilder = Builder<elastic::Channel<Word>>;
  using MtBuilder = Builder<mt::MtChannel<Word>>;

  /// Builders for kCustom nodes, keyed by the node's kind string.
  ComponentFactory& register_custom_st(const std::string& kind, StBuilder builder) {
    custom_[kind].first = std::move(builder);
    return *this;
  }
  ComponentFactory& register_custom_mt(const std::string& kind, MtBuilder builder) {
    custom_[kind].second = std::move(builder);
    return *this;
  }

  /// Builds a kCustom node with the builder registered for its kind in
  /// the context's elaboration mode; throws ElaborationError when there
  /// is none.
  template <typename ChannelT>
  void build(const NodeContext<ChannelT>& ctx) const {
    const auto it = custom_.find(ctx.node.fn);
    if (it == custom_.end() || !std::get<Builder<ChannelT>>(it->second)) {
      constexpr bool kMt = std::is_same_v<ChannelT, mt::MtChannel<Word>>;
      throw ElaborationError("custom node '" + ctx.node.name + "': no " +
                             (kMt ? "multithreaded" : "single-thread") +
                             " builder registered for kind '" + ctx.node.fn + "'");
    }
    std::get<Builder<ChannelT>>(it->second)(ctx);
  }

  /// A shared empty instance: no custom kinds (what Elaboration uses when
  /// no factory is passed).
  [[nodiscard]] static const ComponentFactory& defaults();

 private:
  std::map<std::string, std::pair<StBuilder, MtBuilder>> custom_;
};

}  // namespace mte::netlist
