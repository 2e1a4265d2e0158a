#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"
#include "sim/fault_injector.hpp"
#include "sim/protocol_monitor.hpp"
#include "sim/scc.hpp"
#include "sim/snapshot.hpp"

namespace mte::sim {
namespace {

/// Every eval and tick dispatch of both kernels goes through here. Only a
/// dispatch the attached profiler samples is timed; its duration goes to
/// the component's profile slot. The sampled branch stays cold and its
/// recording out of line, so the unsampled path is `call` plus one
/// decrement and compare.
template <typename Call>
inline void dispatch(obs::PhaseProfiler* profiler, const Component& c, obs::Phase phase,
                     Call call) {
  if (profiler != nullptr && profiler->sample_now()) [[unlikely]] {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
    profiler->record(c.profile_slot(), phase, took.count());
  } else {
    call();
  }
}

}  // namespace

// Levels change only in Simulator::relevelize, and along every known edge
// they do not decrease. An edge whose writer sits strictly below its
// reader therefore closes no cycle and raises no longest-path level: only
// an edge the levels do not order needs the full pass.
void WireBase::discover_reader(Process& p) const {
  p.reads_wires = true;
  last_reader_ = &p;
  for (const Process* r : fanout_) {
    if (r == &p) return;
  }
  fanout_.push_back(&p);
  if (writer_ != nullptr && writer_->level >= p.level) tracker_->mark_topology_dirty();
}

void WireBase::discover_writer(Process& p) {
  writer_ = &p;
  for (const Process* r : fanout_) {
    if (p.level >= r->level) {
      tracker_->mark_topology_dirty();
      return;
    }
  }
}

Component::Component(Simulator& sim, std::string name)
    : sim_(&sim), name_(std::move(name)) {
  sim.register_component(*this);
}

Component::~Component() {
  if (sim_ != nullptr) sim_->unregister_component(*this);
}

Simulator::Simulator(KernelKind kernel) : kernel_(kernel) {
  tracker_.set_event_mode(kernel_ == KernelKind::kEventDriven);
  // The registry outlives nothing that feeds this source: the lambda reads
  // only the simulator's own members and its registered components, both
  // of which are valid whenever a snapshot can be taken.
  metrics_.add_source([this](obs::MetricsSink& sink) { emit_sim_metrics(sink); });
}

void Simulator::emit_sim_metrics(obs::MetricsSink& sink) const {
  using obs::MetricCategory;
  sink.counter("sim.cycles", cycle_, MetricCategory::kSemantic);
  sink.counter("sim.components", components_.size(), MetricCategory::kSemantic);
  sink.counter("sim.sched_evals", eval_count_, MetricCategory::kKernel);
  sink.gauge("sim.settle_work", settle_work_, MetricCategory::kKernel);
  sink.counter("sim.ticks", tick_count_, MetricCategory::kKernel);
  sink.counter("sim.elided_ticks", elided_tick_count_, MetricCategory::kKernel);
  sink.counter("sim.demoted_to_naive", demoted_to_naive_ ? 1 : 0,
               MetricCategory::kKernel);
  sink.counter("sim.relevel_work", relevel_work_, MetricCategory::kKernel);
  for (const Component* c : components_) {
    sink.counter("component." + c->name() + ".evals", c->kernel_eval_calls(),
                 MetricCategory::kKernel);
    sink.counter("component." + c->name() + ".ticks", c->kernel_tick_calls(),
                 MetricCategory::kKernel);
  }
  if (profiler_ != nullptr) profiler_->report(components_, 0).emit_metrics(sink);
  if (trace_ != nullptr) trace_->emit_metrics(sink);
}

Simulator::~Simulator() {
  // Owned components unregister from their dtors; during whole-simulator
  // teardown those callbacks would cost O(components + wires) each for
  // bookkeeping nobody will read again, so they collapse to no-ops.
  tearing_down_ = true;
  owned_.clear();
}

void Simulator::set_kernel(KernelKind kind) {
  // Re-selecting kEventDriven on a demoted simulator un-demotes it (e.g.
  // after replacing the cyclic component); otherwise same-kind is a no-op.
  if (kind == kernel_ && !demoted_to_naive_) return;
  clear_pending();
  kernel_ = kind;
  tracker_.set_event_mode(kind == KernelKind::kEventDriven);
  // Sensitivities may be unknown (or stale) for the incoming kernel: start
  // from a full evaluation, which re-discovers them.
  full_eval_pending_ = true;
  levels_valid_ = false;
  demoted_to_naive_ = false;
}

void Simulator::register_component(Component& c) {
  c.profile_slot_ = next_profile_slot_++;
  components_.push_back(&c);
  seq_cache_valid_ = false;
  levels_valid_ = false;
  full_eval_pending_ = true;
}

void Simulator::unregister_component(Component& c) noexcept {
  if (tearing_down_) return;
  const auto it = std::find(components_.begin(), components_.end(), &c);
  if (it != components_.end()) components_.erase(it);
  // Pending bucket entries may point into c's process slots: drain them
  // first (forget() only scrubs the tracker-side worklist).
  clear_pending();
  tracker_.forget(c);
  c.kernel_procs_.reset();
  c.kernel_proc_count_ = 0;
  c.kernel_seed_mask_ = Component::kAllProcesses;
  seq_cache_valid_ = false;
  levels_valid_ = false;
  full_eval_pending_ = true;
}

void Simulator::ensure_processes(Component& c) {
  if (c.kernel_procs_) return;
  const std::size_t n = c.process_count();
  if (n < 1 || n > Component::kMaxProcesses) {
    throw SimulationError("component '" + c.name() + "': process_count() " +
                          std::to_string(n) + " outside [1, " +
                          std::to_string(Component::kMaxProcesses) + "]");
  }
  c.kernel_procs_ = std::make_unique<Process[]>(n);
  c.kernel_proc_count_ = static_cast<std::uint32_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.kernel_procs_[i].owner = &c;
    c.kernel_procs_[i].index = static_cast<std::uint32_t>(i);
    c.kernel_procs_[i].work = 1.0 / static_cast<double>(n);
  }
}

std::size_t Simulator::settle_limit() const noexcept {
  // Each iteration propagates signals at least one component deeper, so a
  // loop-free circuit settles in <= #components + 1 iterations. Keep a
  // little slack for pathological evaluation orders.
  return 2 * components_.size() + 8;
}

void Simulator::settle() {
  if (kernel_ == KernelKind::kNaive) {
    settle_naive();
  } else {
    settle_event();
  }
}

void Simulator::settle_naive() {
  const std::size_t limit = settle_limit();
  std::size_t iterations = 0;
  tracker_.consume();  // drop stale notifications from outside the loop
  do {
    if (++iterations > limit) {
      throw CombinationalLoopError(
          "settle loop did not converge after " + std::to_string(limit) +
          " iterations; the circuit most likely contains a combinational cycle");
    }
    for (Component* c : components_) {
      dispatch(profiler_, *c, obs::Phase::kSettle, [c] { c->eval(); });
      ++c->eval_calls_;
    }
    eval_count_ += components_.size();
    settle_work_ += static_cast<double>(components_.size());
  } while (tracker_.consume());
}

void Simulator::seed_process(Process& p, std::size_t& pending, std::size_t& min_level) {
  if (p.dirty) return;  // already enqueued by an external write
  p.dirty = true;
  const std::size_t level = std::min<std::size_t>(p.level, level_count_);
  buckets_[level].push_back(&p);
  ++pending;
  if (level < min_level) min_level = level;
}

void Simulator::flush_worklist_to_buckets(std::size_t& pending, std::size_t& min_level) {
  const auto& worklist = tracker_.worklist();
  if (worklist.empty()) return;
  for (Process* p : worklist) {
    const std::size_t level = std::min<std::size_t>(p->level, level_count_);
    buckets_[level].push_back(p);
    ++pending;
    if (level < min_level) min_level = level;
  }
  tracker_.clear_worklist();
}

// Inline: both call sites are the event kernel's hot path.
inline void Simulator::eval_scheduled(Process& p) {
  Component& owner = *p.owner;
  ++eval_count_;
  ++owner.eval_calls_;
  settle_work_ += p.work;
  tracker_.begin_eval(p);
  dispatch(profiler_, owner, obs::Phase::kSettle, [&] { owner.eval_process(p.index); });
  tracker_.end_eval();
}

void Simulator::settle_event() {
  if (!levels_valid_ || tracker_.consume_topology_dirty()) relevelize();

  // Genuinely order-sensitive combinational cycles (detected below by the
  // per-process eval cap) permanently demote this simulator's settles to
  // the naive reference order: different evaluation orders can oscillate
  // or pick different fixed points there, and the naive order is the
  // semantic reference. Component-level cycles that are acyclic at wire
  // granularity (e.g. an MEB arbitrating on a downstream ready while the
  // downstream operator passes that ready through) either disappear
  // entirely at process granularity (split components) or never trip the
  // cap — the worklist just iterates them to their unique fixed point.
  if (demoted_to_naive_) {
    clear_pending();
    full_eval_pending_ = false;
    seed_seq_pending_ = false;
    settle_naive();
    return;
  }

  // Runaway guard: a settle that dispatches more evaluations than the
  // naive kernel's own bound (limit sweeps x all components) has an
  // order-sensitive combinational cycle on its hands.
  const std::size_t eval_cap =
      settle_limit() * std::max<std::size_t>(components_.size(), 1);
  std::size_t evals_this_settle = 0;

  std::size_t pending = 0;
  std::size_t min_level = level_count_ + 1;

  if (full_eval_pending_) {
    full_eval_pending_ = false;
    seed_seq_pending_ = false;
    for (Component* c : components_) {
      for (std::uint32_t i = 0; i < c->kernel_proc_count_; ++i) {
        tracker_.enqueue(c->kernel_procs_[i]);
      }
    }
  }

  try {
    if (seed_seq_pending_) {
      // The per-cycle seeding: sequential components go straight into
      // their level buckets (their levels are current — relevelize ran
      // above). Only the processes the component's tick reported as
      // touched participate; a component whose tick was elided has mask 0.
      //
      // State-only processes — never observed reading any wire, e.g. a
      // buffer's ready (backward) phase or a sink's rate gate — are not
      // scheduled at all: their outputs depend on nothing the sweep will
      // compute, so they are evaluated right here, before the ordered
      // sweep. Their wire writes enqueue reader processes exactly like
      // any other change, and because they run first, every reader then
      // evaluates once at its proper level (no mid-sweep re-wakes).
      seed_seq_pending_ = false;
      if (!seq_cache_valid_) rebuild_sequential_cache();
      for (Component* c : seq_components_) {
        const std::uint32_t mask = c->kernel_seed_mask_;
        if (mask == 0) continue;
        const std::uint32_t n = c->kernel_proc_count_;
        for (std::uint32_t i = 0; i < n; ++i) {
          if (n > 1 && ((mask >> i) & 1u) == 0) continue;
          Process& p = c->kernel_procs_[i];
          if (p.dirty) continue;  // already enqueued by an external write
          if (p.reads_wires) {
            seed_process(p, pending, min_level);
            continue;
          }
          eval_scheduled(p);
          // A first-ever wire read during this early eval means its output
          // may predate inputs the sweep computes: re-run it in order.
          if (p.reads_wires) tracker_.enqueue(p);
        }
      }
    }
    flush_worklist_to_buckets(pending, min_level);

    while (pending > 0) {
      while (min_level < buckets_.size() && buckets_[min_level].empty()) ++min_level;
      auto& bucket = buckets_[min_level];
      Process* p = bucket.back();
      bucket.pop_back();
      --pending;
      p->dirty = false;
      if (++evals_this_settle > eval_cap) {
        // An order-sensitive combinational cycle: the worklist order is
        // not converging. Demote to the reference order, which either
        // converges (order-dependent fixed point) or raises
        // CombinationalLoopError (genuine divergence) — and stay there,
        // since the cycle will re-oscillate every settle. Event mode goes
        // off so wire writes stop paying for a worklist nobody drains
        // (set_kernel re-enables it).
        demoted_to_naive_ = true;
        tracker_.set_event_mode(false);
        clear_pending();
        settle_naive();
        return;
      }
      eval_scheduled(*p);
      // Changed wires enqueued their fanout; newly discovered edges can
      // enqueue below the sweep point and pull it back down.
      if (!tracker_.worklist().empty()) flush_worklist_to_buckets(pending, min_level);
    }
  } catch (...) {
    tracker_.end_eval();
    clear_pending();
    full_eval_pending_ = true;
    throw;
  }
  tracker_.consume();  // the naive fixed-point flag is not meaningful here
}

void Simulator::relevelize() {
  // Materialize process slots first: process_count() is virtual, so this
  // is the earliest point (post-construction) the layout is trustworthy.
  std::size_t n = 0;
  for (Component* c : components_) {
    ensure_processes(*c);
    c->kernel_proc_base_ = static_cast<std::uint32_t>(n);
    n += c->kernel_proc_count_;
  }
  const auto proc_id = [](const Process* p) {
    return p->owner->kernel_proc_base_ + p->index;
  };

  // Combinational dependency graph from the discovered wire topology:
  // writer -> reader for every (writer, fanout) pair, at process
  // granularity. Split components contribute no forward->backward edge of
  // their own, which is exactly what makes ready-passthrough chains
  // acyclic.
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::size_t edges = 0;
  for (const WireBase* w : tracker_.wires()) {
    const Process* writer = w->writer();
    if (writer == nullptr) continue;  // externally driven
    const std::uint32_t wi = proc_id(writer);
    for (const Process* reader : w->fanout()) {
      succ[wi].push_back(proc_id(reader));
    }
    edges += w->fanout().size();
  }
  relevel_work_ += n + edges;

  // Strongly connected components, then longest-path levels over the
  // condensation DAG. Processes of the same SCC (e.g. the cross-coupled
  // ready/valid of an M-Join and its feeding MEBs) share a level and
  // iterate there to their fixed point; everything else settles in one
  // topologically ordered sweep.
  const std::vector<std::size_t> scc = scc_ids(succ, [](std::uint32_t w) { return w; });
  std::size_t scc_count = 0;
  for (const std::size_t id : scc) scc_count = std::max(scc_count, id + 1);

  // SCC ids count up in reverse topological order (descendants first),
  // so walking ids downward visits every SCC before its successors.
  std::vector<std::vector<std::uint32_t>> members(scc_count);
  for (std::uint32_t i = 0; i < n; ++i) members[scc[i]].push_back(i);
  std::vector<std::uint32_t> scc_level(scc_count, 0);
  std::uint32_t max_level = 0;
  for (std::size_t s = scc_count; s-- > 0;) {
    max_level = std::max(max_level, scc_level[s]);
    for (const std::uint32_t u : members[s]) {
      for (const std::uint32_t w : succ[u]) {
        if (scc[w] != s) {
          scc_level[scc[w]] = std::max(scc_level[scc[w]], scc_level[s] + 1);
        }
      }
    }
  }

  level_count_ = n == 0 ? 0 : static_cast<std::size_t>(max_level) + 1;
  for (Component* c : components_) {
    for (std::uint32_t i = 0; i < c->kernel_proc_count_; ++i) {
      const std::uint32_t id = c->kernel_proc_base_ + i;
      c->kernel_procs_[i].level = scc_level[scc[id]];
    }
  }
  buckets_.resize(level_count_ + 1);  // buckets are empty between settles
  levels_valid_ = true;
  tracker_.consume_topology_dirty();
}

void Simulator::rebuild_sequential_cache() {
  seq_components_.clear();
  for (Component* c : components_) {
    if (c->is_sequential()) seq_components_.push_back(c);
  }
  seq_cache_valid_ = true;
}

void Simulator::clear_pending() noexcept {
  for (Process* p : tracker_.worklist()) p->dirty = false;
  tracker_.clear_worklist();
  for (auto& bucket : buckets_) {
    for (Process* p : bucket) p->dirty = false;
    bucket.clear();
  }
}

void Simulator::reset() {
  cycle_ = 0;
  for (Component* c : components_) {
    c->reset();
    c->kernel_seed_mask_ = Component::kAllProcesses;
    c->tick_idle_hint_ = false;
  }
  clear_pending();
  full_eval_pending_ = true;
  if (monitor_ != nullptr) monitor_->reset();
  watchdog_seen_ = 0;
  watchdog_idle_ = 0;
}

void Simulator::set_monitor(ProtocolMonitor* monitor) noexcept {
  monitor_ = monitor;
  watchdog_seen_ = 0;
  watchdog_idle_ = 0;
}

void Simulator::set_watchdog(Cycle cycles, std::string postmortem_dir) {
  watchdog_cycles_ = cycles;
  watchdog_dir_ = std::move(postmortem_dir);
  watchdog_seen_ = monitor_ != nullptr ? monitor_->transfer_count() : 0;
  watchdog_idle_ = 0;
}

void Simulator::check_watchdog() {
  const std::uint64_t seen = monitor_->transfer_count();
  if (seen != watchdog_seen_) {
    watchdog_seen_ = seen;
    watchdog_idle_ = 0;
    return;
  }
  if (++watchdog_idle_ < watchdog_cycles_) return;
  const std::string diagnosis = monitor_->diagnose_stall(cycle_, watchdog_idle_);
  const std::string bundle = write_postmortem(diagnosis);
  watchdog_idle_ = 0;  // a caught WatchdogError leaves the watchdog re-armed
  std::ostringstream os;
  os << "MTE110 " << diagnosis;
  if (!bundle.empty()) os << "post-mortem bundle: " << bundle << '\n';
  throw WatchdogError(os.str(), diagnosis);
}

std::string Simulator::write_postmortem(const std::string& diagnosis) const {
  std::string dir = watchdog_dir_;
  if (dir.empty()) {
    const char* env = std::getenv("MTE_POSTMORTEM_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::string prefix =
      dir + "/postmortem_c" + std::to_string(cycle_);
  // Each file is written independently, and the result names only those
  // that were: the error text never points at a file that is not there.
  std::string written;  // ",<ext>" per file written
  {
    // The pre-tick state of the stalled cycle: restoring it into a fresh
    // elaboration and stepping reproduces the stall.
    std::ofstream os(prefix + ".snap", std::ios::binary);
    if (os) {
      save(os);
      os.close();
      if (os) written += ",snap";
    }
  }
  {
    obs::TraceSession tail;
    monitor_->export_trace_tail(tail);
    if (tail.write_file(prefix + ".trace.json")) written += ",trace.json";
  }
  {
    std::ofstream os(prefix + ".diagnosis.txt");
    if (os) {
      os << diagnosis;
      if (!monitor_->violations().empty()) {
        os << "\nrecorded protocol violations:\n" << monitor_->report();
      }
      os.close();
      if (os) written += ",diagnosis.txt";
    }
  }
  if (written.empty()) return {};
  return prefix + ".{" + written.substr(1) + "}";
}

void Simulator::save(std::ostream& os) const {
  // The writer hands its bytes to `os` whenever this many have piled up
  // between two top-level frames, so it never holds the whole snapshot.
  constexpr std::size_t kDrainBytes = 64 * 1024;
  SnapshotWriter w;
  for (const char c : kSnapshotMagic) w.write_u8(static_cast<std::uint8_t>(c));
  w.write_u32(kSnapshotVersion);
  w.write_u8(kernel_ == KernelKind::kEventDriven ? 1 : 0);
  w.write_u8(demoted_to_naive_ ? 1 : 0);
  w.write_u64(cycle_);

  // Wires in registration order (construction order for a live circuit —
  // deterministic across elaborations of the same netlist).
  const auto& wires = tracker_.wires();
  w.write_u64(wires.size());
  for (const WireBase* wb : wires) {
    const std::size_t frame = w.begin_short_frame();
    wb->save_value(w);
    w.end_short_frame(frame);
    if (w.position() >= kDrainBytes) w.write_to(os);
  }

  w.write_u64(components_.size());
  for (const Component* c : components_) {
    w.write_string(c->name());
    w.write_u8(c->tick_idle_hint_ ? 1 : 0);  // flags: bit0 = idle hint
    const std::size_t frame = w.begin_frame();
    c->save_state(w);
    w.end_frame(frame);
    if (w.position() >= kDrainBytes) w.write_to(os);
  }
  w.write_u64(kSnapshotEnd);
  w.write_to(os);
}

void Simulator::restore(std::istream& is) {
  SnapshotReader r = SnapshotReader::from_stream(is);
  for (const char c : kSnapshotMagic) {
    if (r.read_u8() != static_cast<std::uint8_t>(c)) {
      throw SnapshotError("not an mte snapshot (bad magic)");
    }
  }
  const std::uint32_t version = r.read_u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot format version " + std::to_string(version) +
                        " is not supported (this build reads version " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  (void)r.read_u8();  // kernel kind at save time: informational only
  const bool saved_demoted = r.read_u8() != 0;
  const Cycle cycle = r.read_u64();

  const auto& wires = tracker_.wires();
  const std::uint64_t wire_count = r.read_u64();
  if (wire_count != wires.size()) {
    throw SnapshotError("snapshot holds " + std::to_string(wire_count) +
                        " wires but this simulator has " +
                        std::to_string(wires.size()) +
                        " (different circuit?)");
  }
  for (WireBase* wb : wires) {
    const std::size_t frame = r.open_short_frame();
    wb->load_value(r);
    r.close_short_frame(frame, "wire");
  }

  const std::uint64_t comp_count = r.read_u64();
  if (comp_count != components_.size()) {
    throw SnapshotError("snapshot holds " + std::to_string(comp_count) +
                        " components but this simulator has " +
                        std::to_string(components_.size()) +
                        " (different circuit?)");
  }
  for (Component* c : components_) {
    const std::string name = r.read_string();
    if (name != c->name()) {
      throw SnapshotError("snapshot component '" + name +
                          "' does not match registered component '" + c->name() +
                          "' (different circuit or registration order)");
    }
    const std::uint8_t flags = r.read_u8();
    const std::string what = "component '" + name + "'";
    const std::size_t frame = r.open_frame(what);
    c->load_state(r);
    r.close_frame(frame, what);
    c->tick_idle_hint_ = (flags & 1u) != 0;
    c->kernel_seed_mask_ = Component::kAllProcesses;
  }
  if (r.read_u64() != kSnapshotEnd) {
    throw SnapshotError("snapshot end marker missing");
  }
  if (!r.at_end()) {
    throw SnapshotError("snapshot carries trailing bytes after the end marker");
  }

  cycle_ = cycle;
  // Profiler samples are scratch, like the diagnostics counters: a
  // restored run's profile covers only what it replays.
  if (profiler_ != nullptr) profiler_->reset();
  // Monitor and watchdog state likewise: a restored run re-observes from
  // the snapshot point with a fresh progress window.
  if (monitor_ != nullptr) monitor_->reset();
  watchdog_seen_ = 0;
  watchdog_idle_ = 0;
  // Kernel bookkeeping is rebuilt, not restored: schedule a full
  // evaluation exactly like reset(), which rematerializes process slots,
  // re-discovers sensitivities, and re-levelizes on the next settle —
  // this is what makes a snapshot portable across KernelKinds. The saved
  // demotion flag transfers only onto an event-driven restore target (a
  // demoted circuit stays order-sensitive no matter who saved it).
  clear_pending();
  full_eval_pending_ = true;
  seed_seq_pending_ = false;
  if (kernel_ == KernelKind::kEventDriven) {
    demoted_to_naive_ = saved_demoted;
    tracker_.set_event_mode(!saved_demoted);
  }
}

void Simulator::step() {
  // Trace bookkeeping: this cycle's activity is the counter deltas.
  std::uint64_t trace_evals0 = 0;
  std::uint64_t trace_ticks0 = 0;
  std::uint64_t trace_elided0 = 0;
  bool was_demoted = false;
  if (trace_ != nullptr) {
    trace_evals0 = eval_count_;
    trace_ticks0 = tick_count_;
    trace_elided0 = elided_tick_count_;
    was_demoted = demoted_to_naive_;
  }
  settle();
  for (const auto& fn : observers_) fn(cycle_);
  if (injector_ != nullptr && injector_->apply(cycle_)) {
    // An external wire write never re-schedules its writer: force the next
    // settle to re-evaluate everything so producers restore the true
    // values identically under both kernels.
    full_eval_pending_ = true;
  }
  if (monitor_ != nullptr) {
    monitor_->on_cycle(cycle_);
    if (watchdog_cycles_ != 0) check_watchdog();
  } else if (watchdog_cycles_ != 0) {
    throw SimulationError(
        "Simulator::set_watchdog is armed but no ProtocolMonitor is "
        "attached; the watchdog takes its progress signal from the "
        "monitor's transfer count");
  }
  if (kernel_ == KernelKind::kNaive) {
    for (Component* c : components_) {
      dispatch(profiler_, *c, obs::Phase::kCommit, [c] { c->tick(); });
      ++c->tick_calls_;
    }
    tick_count_ += components_.size();
  } else {
    if (!seq_cache_valid_) rebuild_sequential_cache();
    for (Component* c : seq_components_) {
      // Tick elision: a component whose idle hint is raised and which
      // reports (on this settled state) that its tick would be a no-op
      // is neither ticked nor reseeded. The query then runs every cycle,
      // so the component wakes the cycle its inputs change — and any
      // wire change still reaches its processes through the normal
      // fanout worklist.
      if (c->tick_idle_hint_ && c->tick_quiescent()) {
        c->kernel_seed_mask_ = 0;
        ++elided_tick_count_;
        continue;
      }
      // Sequential state may change at this edge: the processes the tick
      // declares touched (set_tick_touched; default all) have stale
      // eval() outputs and seed the next settle.
      c->kernel_seed_mask_ = Component::kAllProcesses;
      dispatch(profiler_, *c, obs::Phase::kCommit, [c] { c->tick(); });
      ++c->tick_calls_;
      ++tick_count_;
    }
    seed_seq_pending_ = true;
  }
  if (trace_ != nullptr) {
    trace_->record_cycle(cycle_, eval_count_ - trace_evals0,
                         tick_count_ - trace_ticks0,
                         elided_tick_count_ - trace_elided0);
    if (!was_demoted && demoted_to_naive_) trace_->record_demotion(cycle_);
  }
  ++cycle_;
}

void Simulator::run(Cycle n) {
  for (Cycle i = 0; i < n; ++i) step();
}

}  // namespace mte::sim
