#include "netlist/elaborate.hpp"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/analyze.hpp"
#include "sim/fault_injector.hpp"
#include "sim/protocol_monitor.hpp"

namespace mte::netlist {

std::function<Word(Word)> FunctionRegistry::fn(const std::string& name) const {
  const auto it = fns_.find(name);
  if (it == fns_.end()) throw ElaborationError("unknown function '" + name + "'");
  return it->second;
}

std::function<bool(Word)> FunctionRegistry::pred(const std::string& name) const {
  const auto it = preds_.find(name);
  if (it == preds_.end()) throw ElaborationError("unknown predicate '" + name + "'");
  return it->second;
}

FunctionRegistry FunctionRegistry::with_defaults() {
  FunctionRegistry r;
  r.add_fn("id", [](Word x) { return x; });
  r.add_fn("inc", [](Word x) { return x + 1; });
  r.add_fn("dec", [](Word x) { return x - 1; });
  r.add_fn("double", [](Word x) { return 2 * x; });
  r.add_fn("square", [](Word x) { return x * x; });
  r.add_pred("even", [](Word x) { return x % 2 == 0; });
  r.add_pred("odd", [](Word x) { return x % 2 == 1; });
  r.add_pred("nonzero", [](Word x) { return x != 0; });
  return r;
}

namespace {

/// Channel name: the driving endpoint of the edge, "node:port".
std::string channel_name(const Netlist& netlist, const Edge& e) {
  return netlist.node(e.from).name + ':' + std::to_string(e.from_port);
}

}  // namespace

Elaboration::Elaboration(const Netlist& netlist, const FunctionRegistry& registry)
    : Elaboration(netlist, registry, ComponentFactory::defaults()) {}

Elaboration::Elaboration(const Netlist& netlist, const FunctionRegistry& registry,
                         const ComponentFactory& factory, ElaborationOptions options) {
  // The arbiter matters: MT fork/join reconvergence closes a cycle only
  // through speculative (ready-aware) arbitration, so the same netlist is
  // legal under the oblivious TDM arbiter.
  const auto errors = analysis::elaboration_errors(netlist, options.arbiter);
  if (!errors.empty()) {
    const analysis::Diagnostic& d = errors.front();
    std::string what = "netlist cannot be elaborated: [" + d.code + "] ";
    if (!d.component.empty()) {
      what += d.component;
      if (!d.port.empty()) what += ' ' + d.port;
      what += ": ";
    }
    what += d.message;
    if (!d.hint.empty()) what += " (hint: " + d.hint + ")";
    throw ElaborationError(what);
  }
  options_ = options;
  sim_.set_kernel(options.kernel);
  threads_ = netlist.threads();
  multithreaded_ = netlist.is_multithreaded();
  // Rows are created in edge order and never move afterwards: probes hold
  // references to them.
  rows_.reserve(netlist.edges().size());
  handles_.reserve(netlist.edges().size());
  if (netlist.is_multithreaded()) {
    elaborate_multi(netlist, registry, factory, options.channel_probes);
  } else {
    elaborate_single(netlist, registry, factory, options.channel_probes);
  }
  // With every node built (MEBs exposed), complete each row: endpoints,
  // persistence flags, bare-node alias; and record each buffer's in/out
  // channels for the conservation watch.
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Edge& e = netlist.edges()[i];
    const Node& from = netlist.node(e.from);
    const Node& to = netlist.node(e.to);
    sim::ChannelRow& row = rows_[i];
    row.producer = from.name;
    row.producer_port = "out" + std::to_string(e.from_port);
    row.consumer = to.name;
    if (multithreaded_) {
      // MT valid is never persistent: every MEB/MtSource drives it
      // through a rotating arbiter, so a stalled thread's valid legally
      // drops when the grant moves on. Per-thread ready persists only at
      // full-MEB inputs (private slots per thread); reduced MEBs share
      // slots, so a peer thread's accept retracts this thread's ready
      // without a transfer.
      const auto meb = mebs_.find(to.name);
      row.persistent_ready = to.type == NodeType::kBuffer && meb != mebs_.end() &&
                             meb->second.kind() == mt::MebKind::kFull;
    } else {
      // ST elastic-buffer outputs hold valid until the pop (occupancy
      // semantics); rate-gated sources and derived valids (forks, joins,
      // function units) may legally withdraw an offer.
      row.persistent_valid = from.type == NodeType::kBuffer;
      row.persistent_ready = to.type == NodeType::kBuffer;
    }
    if (from.outputs == 1) row_of_.emplace(from.name, i);
    if (to.type == NodeType::kBuffer) buffer_io_[to.name].in_channel = row.name;
    if (from.type == NodeType::kBuffer) buffer_io_[from.name].out_channel = row.name;
  }
  // Publish every probe's statistics on the simulator's registry under
  // the stable channel.* scheme — the machine-readable counterpart of
  // stats_report(). Semantic category: probe statistics are settled-state
  // observables, identical across settle kernels on lockstep-equivalent
  // runs. The lambda outlives nothing it touches: sim_ is this class's
  // first member, so the registry inside it is destroyed after the table.
  sim_.metrics().add_source([this](obs::MetricsSink& sink) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const ChannelProbe* p = handles_[i].probe;
      if (p == nullptr) continue;
      const std::string base = "channel." + rows_[i].name + ".";
      sink.counter(base + "transfers", p->count());
      sink.gauge(base + "throughput", p->throughput());
      sink.gauge(base + "mean_wait", p->mean_wait());
      sink.counter(base + "max_wait", p->wait_histogram().max());
    }
  });
}

void Elaboration::add_row(std::string name, std::span<sim::Wire<bool>> valid,
                          std::span<sim::Wire<bool>> ready, sim::Wire<Word>& data,
                          const mt::ThreadMask* valid_mask, bool probes) {
  row_of_.emplace(name, rows_.size());
  sim::ChannelRow& row = rows_.emplace_back();
  row.name = std::move(name);
  row.valid = valid;
  row.ready = ready;
  row.data = &data;
  row.valid_mask = valid_mask;
  handles_.emplace_back();
  if (probes) handles_.back().probe = &sim_.make<ChannelProbe>(sim_, row);
}

void Elaboration::elaborate_single(const Netlist& netlist,
                                   const FunctionRegistry& registry,
                                   const ComponentFactory& factory, bool probes) {
  PortMap<elastic::Channel<Word>> ports;
  for (const auto& e : netlist.edges()) {
    auto& ch = sim_.make<elastic::Channel<Word>>(sim_, channel_name(netlist, e));
    ports.out[{e.from, e.from_port}] = &ch;
    ports.in[{e.to, e.to_port}] = &ch;
    add_row(ch.name(), {&ch.valid, 1}, {&ch.ready, 1}, ch.data, nullptr, probes);
    handles_.back().st = &ch;
  }
  for (const auto& n : netlist.nodes()) {
    const StContext ctx{sim_, netlist, n, registry, ports, *this};
    factory.st(n)(ctx);
  }
}

void Elaboration::elaborate_multi(const Netlist& netlist,
                                  const FunctionRegistry& registry,
                                  const ComponentFactory& factory, bool probes) {
  PortMap<mt::MtChannel<Word>> ports;
  for (const auto& e : netlist.edges()) {
    auto& ch = sim_.make<mt::MtChannel<Word>>(sim_, channel_name(netlist, e), threads_);
    ports.out[{e.from, e.from_port}] = &ch;
    ports.in[{e.to, e.to_port}] = &ch;
    add_row(ch.name(), ch.valid_wires(), ch.ready_wires(), ch.data, &ch.valid_mask(),
            probes);
    handles_.back().mt = &ch;
  }
  for (const auto& n : netlist.nodes()) {
    const MtContext ctx{sim_, netlist, n, registry, ports, *this};
    factory.mt(n)(ctx);
  }
}

elastic::Source<Word>& Elaboration::source(const std::string& name) {
  const auto it = sources_.find(name);
  if (it == sources_.end()) throw ElaborationError("no source '" + name + "'");
  return *it->second;
}

elastic::Sink<Word>& Elaboration::sink(const std::string& name) {
  const auto it = sinks_.find(name);
  if (it == sinks_.end()) throw ElaborationError("no sink '" + name + "'");
  return *it->second;
}

mt::MtSource<Word>& Elaboration::mt_source(const std::string& name) {
  const auto it = mt_sources_.find(name);
  if (it == mt_sources_.end()) throw ElaborationError("no mt source '" + name + "'");
  return *it->second;
}

mt::MtSink<Word>& Elaboration::mt_sink(const std::string& name) {
  const auto it = mt_sinks_.find(name);
  if (it == mt_sinks_.end()) throw ElaborationError("no mt sink '" + name + "'");
  return *it->second;
}

std::size_t Elaboration::row_index(const std::string& name) const {
  const auto it = row_of_.find(name);
  if (it == row_of_.end()) throw ElaborationError("no channel '" + name + "'");
  return it->second;
}

ChannelProbe& Elaboration::probe(const std::string& channel) {
  ChannelProbe* p = handles_[row_index(channel)].probe;
  if (p == nullptr) {
    throw ElaborationError("channel probes are disabled for this elaboration");
  }
  return *p;
}

std::vector<std::string> Elaboration::channel_names() const {
  std::vector<std::string> names;
  names.reserve(rows_.size());
  for (const sim::ChannelRow& row : rows_) names.push_back(row.name);
  return names;
}

double Elaboration::throughput(const std::string& channel) {
  return probe(channel).throughput();
}

double Elaboration::mean_wait(const std::string& channel) {
  return probe(channel).mean_wait();
}

std::string Elaboration::stats_report() {
  if (!options_.channel_probes || rows_.empty()) {
    return "channel probes are disabled for this elaboration\n";
  }
  std::ostringstream os;
  os << "channel            tokens  tput    mean_wait  max_wait\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ChannelProbe& p = *handles_[i].probe;
    char line[128];
    std::snprintf(line, sizeof(line), "%-18s %6llu  %6.3f  %9.2f  %8llu\n",
                  rows_[i].name.c_str(), static_cast<unsigned long long>(p.count()),
                  p.throughput(), p.mean_wait(),
                  static_cast<unsigned long long>(p.wait_histogram().max()));
    os << line;
  }
  return os.str();
}

elastic::Channel<Word>& Elaboration::channel(const std::string& name) {
  elastic::Channel<Word>* ch = handles_[row_index(name)].st;
  if (ch == nullptr) throw ElaborationError("no single-thread channel '" + name + "'");
  return *ch;
}

mt::MtChannel<Word>& Elaboration::mt_channel(const std::string& name) {
  mt::MtChannel<Word>* ch = handles_[row_index(name)].mt;
  if (ch == nullptr) throw ElaborationError("no multithreaded channel '" + name + "'");
  return *ch;
}

const mt::AnyMeb<Word>& Elaboration::meb(const std::string& node_name) const {
  const auto it = mebs_.find(node_name);
  if (it == mebs_.end()) throw ElaborationError("no MEB '" + node_name + "'");
  return it->second;
}

void Elaboration::attach_monitor(sim::ProtocolMonitor& monitor) {
  for (const sim::ChannelRow& row : rows_) monitor.watch(row);
  // Token conservation across every buffer whose input and output are
  // both internal channels (boundary buffers lack one side): MEBs via
  // AnyMeb::total_occupancy, ST elastic buffers via the occupancy
  // accessor their builder exposed.
  const auto watch_buffer = [&](const std::string& node,
                                std::function<int()> occupancy) {
    const auto it = buffer_io_.find(node);
    if (it == buffer_io_.end() || it->second.in_channel.empty() ||
        it->second.out_channel.empty()) {
      return;
    }
    monitor.watch_conservation(node, it->second.in_channel,
                               it->second.out_channel, std::move(occupancy));
  };
  for (const auto& [node, meb] : mebs_) {
    watch_buffer(node, [m = meb] { return m.total_occupancy(); });
  }
  for (const auto& [node, occupancy] : buffer_occupancy_) {
    watch_buffer(node, occupancy);
  }
  sim_.set_monitor(&monitor);
}

void Elaboration::bind_faults(sim::FaultInjector& injector) {
  for (const sim::ChannelRow& row : rows_) injector.bind(row);
  sim_.set_fault_injector(&injector);
}

void Elaboration::expose_source(const std::string& name, elastic::Source<Word>& src) {
  sources_[name] = &src;
}
void Elaboration::expose_sink(const std::string& name, elastic::Sink<Word>& snk) {
  sinks_[name] = &snk;
}
void Elaboration::expose_mt_source(const std::string& name, mt::MtSource<Word>& src) {
  mt_sources_[name] = &src;
}
void Elaboration::expose_buffer(const std::string& name,
                                std::function<int()> occupancy) {
  buffer_occupancy_[name] = std::move(occupancy);
}
void Elaboration::expose_mt_sink(const std::string& name, mt::MtSink<Word>& snk) {
  mt_sinks_[name] = &snk;
}
void Elaboration::expose_meb(const std::string& name, mt::AnyMeb<Word> meb) {
  mebs_.emplace(name, meb);
}

}  // namespace mte::netlist
