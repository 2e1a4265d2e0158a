// CircuitBuilder: the fluent construction API for elastic netlists.
//
// Nodes are created through named methods that return typed NodeRef
// handles; attributes chain (`b.source("in").rate(0.9)`); connections are
// written with `operator>>` (or `.to()`) between nodes and ports and are
// validated immediately — a bad port index, a double-driven input or a
// duplicate name throws BuildError at the offending line instead of
// surfacing later at elaboration. The paper's synthesis transform rides
// along in the flow as then_multithreaded(S, kind):
//
//   CircuitBuilder b;
//   b.source("in").rate(0.9) >> b.buffer("b0") >> b.function("sq", "square")
//                            >> b.buffer("b1") >> b.sink("out");
//   auto design = b.then_multithreaded(4, mt::MebKind::kReduced)
//                  .elaborate();                    // MEBs + M- operators
//
// Port selection: `a >> b` connects a's lowest unconnected output to b's
// lowest unconnected input, which reads naturally for joins and forks
// (`src1 >> join; src2 >> join;`). Explicit ports are always available:
// `br.when_false() >> merge.in(1)`.
//
// The builder rides on Netlist::add(Node::...)/connect(id, port, id,
// port), the plain id-based construction path the .enl parser also uses.
#pragma once

#include <stdexcept>
#include <string>
#include <map>
#include <vector>

#include "analysis/analyze.hpp"
#include "mt/meb_variant.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/netlist.hpp"

namespace mte::netlist {

class CircuitBuilder;
class NodeRef;

class BuildError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A (node, port) endpoint handle.
struct PortRef {
  CircuitBuilder* builder = nullptr;
  std::size_t node_id = 0;
  unsigned port = 0;

  [[nodiscard]] NodeRef node() const;
};

/// A typed handle to a node under construction. Cheap to copy; valid as
/// long as its CircuitBuilder lives.
class NodeRef {
 public:
  NodeRef() = default;
  NodeRef(CircuitBuilder* builder, std::size_t id) : builder_(builder), id_(id) {}

  [[nodiscard]] std::size_t id() const noexcept { return id_; }
  [[nodiscard]] CircuitBuilder* builder() const noexcept { return builder_; }
  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] NodeType type() const;

  // --- chained attribute setters (validated for the node's type) ---------
  /// Injection rate (source) or readiness rate (sink).
  NodeRef rate(double r) const;
  /// Latency range of a var_latency node.
  NodeRef latency(unsigned lo, unsigned hi) const;

  // --- ports --------------------------------------------------------------
  [[nodiscard]] PortRef in(unsigned port = 0) const;
  [[nodiscard]] PortRef out(unsigned port = 0) const;
  /// Branch outputs by meaning: predicate-true exits out(0), false out(1).
  [[nodiscard]] PortRef when_true() const { return out(0); }
  [[nodiscard]] PortRef when_false() const { return out(1); }

  // --- connection sugar ---------------------------------------------------
  /// Connects this node's next free output to next's next free input and
  /// returns `next` so pipelines chain: a.to(b).to(c).
  NodeRef to(NodeRef next) const;
  NodeRef to(PortRef next) const;

 private:
  CircuitBuilder* builder_ = nullptr;
  std::size_t id_ = 0;
};

// `a >> b` pipeline chaining; every form returns the downstream handle.
NodeRef operator>>(NodeRef from, NodeRef to);
NodeRef operator>>(PortRef from, NodeRef to);
NodeRef operator>>(NodeRef from, PortRef to);
NodeRef operator>>(PortRef from, PortRef to);

class CircuitBuilder {
 public:
  CircuitBuilder() = default;

  // --- node creation (names must be unique) -------------------------------
  NodeRef source(const std::string& name);
  NodeRef sink(const std::string& name);
  NodeRef buffer(const std::string& name);
  NodeRef fork(const std::string& name, unsigned outputs);
  NodeRef join(const std::string& name, unsigned inputs);
  NodeRef merge(const std::string& name, unsigned inputs);
  NodeRef branch(const std::string& name, const std::string& predicate);
  NodeRef function(const std::string& name, const std::string& fn);
  NodeRef var_latency(const std::string& name, unsigned lo, unsigned hi);
  /// A user primitive elaborated through ComponentFactory's custom registry.
  NodeRef custom(const std::string& name, const std::string& kind, unsigned inputs,
                 unsigned outputs);

  /// Looks up an existing node by name; throws BuildError if absent. The
  /// returned handle can set attributes and make connections, so lookup
  /// requires a mutable builder.
  [[nodiscard]] NodeRef node(const std::string& name);

  /// Adds a chain of 2-slot buffers b.<prefix>0 >> ... and returns the
  /// (first, last) pair — convenient for pipeline depth sweeps.
  std::pair<NodeRef, NodeRef> buffer_chain(const std::string& prefix,
                                           std::size_t length);

  // --- connections --------------------------------------------------------
  /// Connects from -> to with immediate validation (port bounds, single
  /// driver/reader). The operator>> forms funnel through here.
  void connect(PortRef from, PortRef to);

  /// Lowest still-unconnected output/input port of a node; throws
  /// BuildError when every port is taken.
  [[nodiscard]] unsigned next_free_output(NodeRef node) const;
  [[nodiscard]] unsigned next_free_input(NodeRef node) const;

  // --- the synthesis step -------------------------------------------------
  /// Applies the paper's transform at build(): EBs become S-thread MEBs of
  /// the chosen flavour and operators their M- variants.
  CircuitBuilder& then_multithreaded(std::size_t threads, mt::MebKind kind);

  // --- outputs ------------------------------------------------------------
  /// Returns the finished netlist (with the multithreaded transform
  /// applied, when requested). Throws BuildError when the static analyzer
  /// reports error-severity diagnostics (e.g. a bufferless cycle, a
  /// dangling port, a deadlocked join loop, or multithreaded fork/join
  /// reconvergence under the default ready-aware arbiter).
  [[nodiscard]] Netlist build() const;

  /// The full static-analysis report for the netlist as described (with
  /// the multithreaded transform applied, when requested) — the way to
  /// inspect the warnings and notes that build() does not reject.
  /// Unlike build() it never throws on findings.
  [[nodiscard]] analysis::AnalysisReport analyze(
      const analysis::AnalysisOptions& options = {}) const;

  /// Elaborates the netlist as described (with the multithreaded
  /// transform applied, when requested). Skips build()'s analyzer gate:
  /// Elaboration applies analysis::elaboration_errors under the real
  /// arbiter and throws ElaborationError on a design it cannot elaborate.
  [[nodiscard]] Elaboration elaborate(
      const FunctionRegistry& registry = FunctionRegistry::with_defaults(),
      const ComponentFactory& factory = ComponentFactory::defaults(),
      ElaborationOptions options = {}) const;

  /// The netlist as described so far: single-thread, not yet validated.
  [[nodiscard]] const Netlist& netlist() const noexcept { return netlist_; }

  /// Imports an existing single-thread netlist (e.g. one parsed from
  /// .enl text) so it can be extended fluently. Node names must be unique.
  [[nodiscard]] static CircuitBuilder from(const Netlist& netlist);

  // Internal accessors used by NodeRef (public members of a detail
  // surface; not part of the documented API).
  [[nodiscard]] const Node& node_info(std::size_t id) const;
  Node& node_mut(std::size_t id);

 private:
  NodeRef add(Node spec);
  void check_ref(const PortRef& ref) const;
  /// The netlist as described, with the multithreaded transform applied
  /// when requested; unchecked.
  [[nodiscard]] Netlist transformed() const;

  Netlist netlist_;
  std::map<std::string, std::size_t> by_name_;
  std::vector<std::vector<bool>> out_used_;  // [node][port]
  std::vector<std::vector<bool>> in_used_;
  bool multithreaded_ = false;
  std::size_t threads_ = 1;
  mt::MebKind meb_kind_ = mt::MebKind::kFull;
};

}  // namespace mte::netlist
