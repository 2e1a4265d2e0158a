#include "netlist/builder.hpp"

namespace mte::netlist {

// --- NodeRef ----------------------------------------------------------------

const std::string& NodeRef::name() const { return builder_->node_info(id_).name; }

NodeType NodeRef::type() const { return builder_->node_info(id_).type; }

NodeRef NodeRef::rate(double r) const {
  Node& n = builder_->node_mut(id_);
  if (n.type != NodeType::kSource && n.type != NodeType::kSink) {
    throw BuildError("rate(): node '" + n.name + "' is a " + to_string(n.type) +
                     ", not a source or sink");
  }
  if (r < 0.0 || r > 1.0) {
    throw BuildError("rate(): node '" + n.name + "': rate must be in [0, 1]");
  }
  n.rate = r;
  return *this;
}

NodeRef NodeRef::latency(unsigned lo, unsigned hi) const {
  Node& n = builder_->node_mut(id_);
  if (n.type != NodeType::kVarLatency) {
    throw BuildError("latency(): node '" + n.name + "' is a " + to_string(n.type) +
                     ", not a var_latency unit");
  }
  if (lo == 0 || hi < lo) {
    throw BuildError("latency(): node '" + n.name + "': bad range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  n.latency_lo = lo;
  n.latency_hi = hi;
  return *this;
}

PortRef NodeRef::in(unsigned port) const {
  const Node& n = builder_->node_info(id_);
  if (port >= n.inputs) {
    throw BuildError("node '" + n.name + "' has no input port " + std::to_string(port));
  }
  return PortRef{builder_, id_, port};
}

PortRef NodeRef::out(unsigned port) const {
  const Node& n = builder_->node_info(id_);
  if (port >= n.outputs) {
    throw BuildError("node '" + n.name + "' has no output port " +
                     std::to_string(port));
  }
  return PortRef{builder_, id_, port};
}

NodeRef NodeRef::to(NodeRef next) const { return *this >> next; }

NodeRef NodeRef::to(PortRef next) const { return *this >> next; }

NodeRef PortRef::node() const { return NodeRef(builder, node_id); }

// --- connection operators ---------------------------------------------------

namespace {

CircuitBuilder& common_builder(CircuitBuilder* a, CircuitBuilder* b) {
  if (a == nullptr || b == nullptr) {
    throw BuildError("connection uses a default-constructed (detached) handle");
  }
  if (a != b) {
    throw BuildError("connection joins handles from two different builders");
  }
  return *a;
}

}  // namespace

NodeRef operator>>(NodeRef from, NodeRef to) {
  CircuitBuilder& b = common_builder(from.builder(), to.builder());
  b.connect(from.out(b.next_free_output(from)), to.in(b.next_free_input(to)));
  return to;
}

NodeRef operator>>(PortRef from, NodeRef to) {
  CircuitBuilder& b = common_builder(from.builder, to.builder());
  b.connect(from, to.in(b.next_free_input(to)));
  return to;
}

NodeRef operator>>(NodeRef from, PortRef to) {
  CircuitBuilder& b = common_builder(from.builder(), to.builder);
  b.connect(from.out(b.next_free_output(from)), to);
  return to.node();
}

NodeRef operator>>(PortRef from, PortRef to) {
  CircuitBuilder& b = common_builder(from.builder, to.builder);
  b.connect(from, to);
  return to.node();
}

// --- CircuitBuilder ---------------------------------------------------------

NodeRef CircuitBuilder::add(Node spec) {
  if (spec.name.empty()) throw BuildError("node name must not be empty");
  if (by_name_.count(spec.name) != 0) {
    throw BuildError("duplicate node name '" + spec.name + "'");
  }
  if (spec.inputs > kMaxPorts || spec.outputs > kMaxPorts) {
    throw BuildError("node '" + spec.name + "': port count exceeds the maximum of " +
                     std::to_string(kMaxPorts));
  }
  out_used_.emplace_back(spec.outputs, false);
  in_used_.emplace_back(spec.inputs, false);
  const auto id = netlist_.add(std::move(spec));
  by_name_.emplace(netlist_.node(id).name, id);
  return NodeRef(this, id);
}

NodeRef CircuitBuilder::source(const std::string& name) {
  return add(Node::source(name));
}

NodeRef CircuitBuilder::sink(const std::string& name) { return add(Node::sink(name)); }

NodeRef CircuitBuilder::buffer(const std::string& name) {
  return add(Node::buffer(name));
}

NodeRef CircuitBuilder::fork(const std::string& name, unsigned outputs) {
  if (outputs < 2) throw BuildError("fork '" + name + "' needs >= 2 outputs");
  return add(Node::fork(name, outputs));
}

NodeRef CircuitBuilder::join(const std::string& name, unsigned inputs) {
  if (inputs < 2) throw BuildError("join '" + name + "' needs >= 2 inputs");
  return add(Node::join(name, inputs));
}

NodeRef CircuitBuilder::merge(const std::string& name, unsigned inputs) {
  if (inputs < 2) throw BuildError("merge '" + name + "' needs >= 2 inputs");
  return add(Node::merge(name, inputs));
}

NodeRef CircuitBuilder::branch(const std::string& name, const std::string& predicate) {
  return add(Node::branch(name, predicate));
}

NodeRef CircuitBuilder::function(const std::string& name, const std::string& fn) {
  return add(Node::function(name, fn));
}

NodeRef CircuitBuilder::var_latency(const std::string& name, unsigned lo, unsigned hi) {
  if (lo == 0 || hi < lo) {
    throw BuildError("var_latency '" + name + "': bad range [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
  }
  return add(Node::var_latency(name, lo, hi));
}

NodeRef CircuitBuilder::custom(const std::string& name, const std::string& kind,
                               unsigned inputs, unsigned outputs) {
  return add(Node::custom(name, kind, inputs, outputs));
}

NodeRef CircuitBuilder::node(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) throw BuildError("no node named '" + name + "'");
  return NodeRef(this, it->second);
}

std::pair<NodeRef, NodeRef> CircuitBuilder::buffer_chain(const std::string& prefix,
                                                         std::size_t length) {
  if (length == 0) throw BuildError("buffer_chain '" + prefix + "': length 0");
  NodeRef first = buffer(prefix + "0");
  NodeRef last = first;
  for (std::size_t i = 1; i < length; ++i) {
    NodeRef next = buffer(prefix + std::to_string(i));
    last >> next;
    last = next;
  }
  return {first, last};
}

void CircuitBuilder::check_ref(const PortRef& ref) const {
  if (ref.builder != this) {
    throw BuildError("port handle does not belong to this builder");
  }
  if (ref.node_id >= netlist_.nodes().size()) {
    throw BuildError("port handle refers to an unknown node");
  }
}

void CircuitBuilder::connect(PortRef from, PortRef to) {
  check_ref(from);
  check_ref(to);
  const Node& src = netlist_.node(from.node_id);
  const Node& dst = netlist_.node(to.node_id);
  if (from.port >= src.outputs) {
    throw BuildError("node '" + src.name + "' has no output port " +
                     std::to_string(from.port));
  }
  if (to.port >= dst.inputs) {
    throw BuildError("node '" + dst.name + "' has no input port " +
                     std::to_string(to.port));
  }
  if (out_used_[from.node_id][from.port]) {
    throw BuildError("node '" + src.name + "' output " + std::to_string(from.port) +
                     " is already connected (use a fork for fanout)");
  }
  if (in_used_[to.node_id][to.port]) {
    throw BuildError("node '" + dst.name + "' input " + std::to_string(to.port) +
                     " is already driven");
  }
  out_used_[from.node_id][from.port] = true;
  in_used_[to.node_id][to.port] = true;
  netlist_.connect(from.node_id, from.port, to.node_id, to.port);
}

unsigned CircuitBuilder::next_free_output(NodeRef node) const {
  const auto& used = out_used_.at(node.id());
  for (unsigned p = 0; p < used.size(); ++p) {
    if (!used[p]) return p;
  }
  throw BuildError("node '" + node_info(node.id()).name +
                   "' has no free output port left");
}

unsigned CircuitBuilder::next_free_input(NodeRef node) const {
  const auto& used = in_used_.at(node.id());
  for (unsigned p = 0; p < used.size(); ++p) {
    if (!used[p]) return p;
  }
  throw BuildError("node '" + node_info(node.id()).name +
                   "' has no free input port left");
}

CircuitBuilder& CircuitBuilder::then_multithreaded(std::size_t threads,
                                                   mt::MebKind kind) {
  if (threads == 0) throw BuildError("then_multithreaded: thread count must be >= 1");
  multithreaded_ = true;
  threads_ = threads;
  meb_kind_ = kind;
  return *this;
}

Netlist CircuitBuilder::transformed() const {
  return multithreaded_ ? netlist_.to_multithreaded(threads_, meb_kind_) : netlist_;
}

Netlist CircuitBuilder::build() const {
  Netlist result = transformed();
  // The static-analysis gate: build() refuses error-severity diagnostics
  // (warnings and notes stay queryable through analyze()). The analyzer
  // assumes the default ready-aware arbiter here; elaborate() skips the
  // gate and leaves the decision to Elaboration, which knows the real
  // arbiter.
  const analysis::AnalysisReport report = analysis::analyze(result);
  if (report.has_errors()) {
    std::string message = "netlist analysis found errors:";
    for (const auto& d : report.by_severity(analysis::Severity::kError)) {
      message += "\n  - [" + d.code + "] ";
      if (!d.component.empty()) message += d.component + ": ";
      message += d.message;
      if (!d.hint.empty()) message += " (hint: " + d.hint + ")";
    }
    throw BuildError(message);
  }
  return result;
}

analysis::AnalysisReport CircuitBuilder::analyze(
    const analysis::AnalysisOptions& options) const {
  return analysis::analyze(transformed(), options);
}

Elaboration CircuitBuilder::elaborate() const {
  return Elaboration(transformed(), FunctionRegistry::with_defaults());
}

Elaboration CircuitBuilder::elaborate(const FunctionRegistry& registry) const {
  return Elaboration(transformed(), registry);
}

Elaboration CircuitBuilder::elaborate(const FunctionRegistry& registry,
                                      const ComponentFactory& factory,
                                      ElaborationOptions options) const {
  return Elaboration(transformed(), registry, factory, options);
}

CircuitBuilder CircuitBuilder::from(const Netlist& netlist) {
  if (netlist.is_multithreaded()) {
    throw BuildError("CircuitBuilder::from: import the single-thread netlist and "
                     "re-apply then_multithreaded instead");
  }
  CircuitBuilder b;
  for (const auto& n : netlist.nodes()) {
    Node spec = n;  // id is reassigned by add()
    b.add(std::move(spec));
  }
  for (const auto& e : netlist.edges()) {
    b.connect(PortRef{&b, e.from, e.from_port}, PortRef{&b, e.to, e.to_port});
  }
  return b;
}

const Node& CircuitBuilder::node_info(std::size_t id) const {
  return netlist_.node(id);
}

Node& CircuitBuilder::node_mut(std::size_t id) { return netlist_.nodes_.at(id); }

}  // namespace mte::netlist
