// Wires: the combinational signals of the simulated circuit.
//
// A Wire<T> holds the value a signal has settled to in the current delta
// cycle. Components write wires only from eval(); every write that changes
// the value notifies the owning ChangeTracker so the settle loop knows it
// has not yet reached a fixed point.
//
// Beyond the naive "anything changed" bit, wires also carry the sensitivity
// metadata the event-driven kernel runs on. Sensitivity is recorded at
// PROCESS granularity (sim::Process — a component's whole eval() by
// default, or one phase of a split component):
//   - fanout: the processes observed reading this wire from inside their
//     eval (recorded on first read; a superset of the live read set, which
//     is sound — a process whose last eval never read a wire cannot depend
//     on it),
//   - writer: the process observed driving the wire (single-writer by
//     construction of the circuit model; split components write disjoint
//     wire sets per process),
//   - a dirty-process worklist on the ChangeTracker: a write that changes
//     the value enqueues exactly the fanout of that wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/snapshot.hpp"

namespace mte::sim {

class WireBase;

/// The hub shared by a Simulator's wires and its settle kernel.
///
/// For the naive kernel it is the original one-bit change flag. For the
/// event-driven kernel it additionally tracks which process is currently
/// inside eval (so wires can record readers/writers), keeps the registry
/// of wires (the levelization pass walks writer->fanout edges), and owns
/// the dirty-process worklist fed by wire changes.
class ChangeTracker {
 public:
  ChangeTracker() = default;
  ChangeTracker(const ChangeTracker&) = delete;
  ChangeTracker& operator=(const ChangeTracker&) = delete;

  // --- fixed-point flag (naive kernel; also cleared by the event kernel) --
  void note_change() noexcept { changed_ = true; }

  /// Returns whether a change was noted since the last consume, and clears.
  bool consume() noexcept { return std::exchange(changed_, false); }

  // --- evaluation context (sensitivity discovery) -------------------------
  [[nodiscard]] Process* evaluating() const noexcept { return evaluating_; }
  void begin_eval(Process& p) noexcept { evaluating_ = &p; }
  void end_eval() noexcept { evaluating_ = nullptr; }

  /// Worklist feeding is only enabled while an event-driven kernel drives
  /// this tracker; the naive kernel keeps it off so set() stays cheap.
  void set_event_mode(bool on) noexcept { event_mode_ = on; }
  [[nodiscard]] bool event_mode() const noexcept { return event_mode_; }

  // --- dirty-process worklist ---------------------------------------------
  /// Enqueues a process for (re-)evaluation; deduplicated via the
  /// process's dirty flag.
  void enqueue(Process& p) {
    if (p.dirty) return;
    p.dirty = true;
    worklist_.push_back(&p);
  }

  [[nodiscard]] const std::vector<Process*>& worklist() const noexcept {
    return worklist_;
  }
  void clear_worklist() noexcept { worklist_.clear(); }

  // --- topology -----------------------------------------------------------
  /// Set when a wire records a previously unseen reader or writer; the
  /// event kernel then recomputes levels before its next settle.
  void mark_topology_dirty() noexcept { topology_dirty_ = true; }
  bool consume_topology_dirty() noexcept { return std::exchange(topology_dirty_, false); }

  [[nodiscard]] const std::vector<WireBase*>& wires() const noexcept { return wires_; }

  /// Drops every sensitivity record that mentions a process of `c`
  /// (called when a component is destroyed or unregistered mid-run).
  void forget(Component& c);

 private:
  friend class WireBase;
  void register_wire(WireBase& w);
  void unregister_wire(WireBase& w) noexcept;

  bool changed_ = false;
  bool event_mode_ = false;
  bool topology_dirty_ = false;
  Process* evaluating_ = nullptr;
  std::vector<Process*> worklist_;
  std::vector<WireBase*> wires_;
};

/// Type-erased wire core: sensitivity bookkeeping shared by all Wire<T>.
class WireBase {
 public:
  explicit WireBase(ChangeTracker& tracker) : tracker_(&tracker) {
    tracker_->register_wire(*this);
  }

  virtual ~WireBase() { tracker_->unregister_wire(*this); }

  WireBase(const WireBase&) = delete;
  WireBase& operator=(const WireBase&) = delete;
  WireBase& operator=(WireBase&&) = delete;

  /// Move-constructible so wires can live in containers: the new wire
  /// takes over the sensitivity records and registers its own address (the
  /// moved-from wire unregisters on destruction as usual).
  WireBase(WireBase&& other) noexcept
      : tracker_(other.tracker_), fanout_(std::move(other.fanout_)),
        last_reader_(other.last_reader_), writer_(other.writer_) {
    other.fanout_.clear();
    other.last_reader_ = nullptr;
    other.writer_ = nullptr;
    tracker_->register_wire(*this);
  }

  /// The process observed driving this wire (nullptr until discovered or
  /// when the wire is driven externally, e.g. by test code).
  [[nodiscard]] Process* writer() const noexcept { return writer_; }

  /// Processes observed reading this wire from inside eval.
  [[nodiscard]] const std::vector<Process*>& fanout() const noexcept {
    return fanout_;
  }

  // --- checkpointing (Simulator::save/restore) ------------------------------
  /// Serializes the settled value (cold path; the per-wire vtable is the
  /// price of type-erased snapshotting and is touched only here).
  virtual void save_value(SnapshotWriter& w) const = 0;

  /// Restores a value written by save_value. Implementations load through
  /// set(), so bit mirrors and forwarding chains re-sync as a side effect.
  virtual void load_value(SnapshotReader& r) = 0;

 protected:
  /// Records the currently evaluating process as sensitive to this wire.
  void record_read() const {
    Process* p = tracker_->evaluating();
    if (p == nullptr || p == last_reader_) return;
    p->reads_wires = true;
    last_reader_ = p;
    for (Process* r : fanout_) {
      if (r == p) return;
    }
    fanout_.push_back(p);
    tracker_->mark_topology_dirty();
  }

  /// Records the currently evaluating process as this wire's driver.
  /// Only the first writer is recorded (wires are single-writer by
  /// construction; the record feeds the levelization heuristic, while
  /// correctness rests on the read fanout) — so the settled fast path is
  /// one null check on a member the write touches anyway.
  void record_write() {
    if (writer_ != nullptr) return;
    Process* p = tracker_->evaluating();
    if (p != nullptr) {
      writer_ = p;
      tracker_->mark_topology_dirty();
    }
  }

  /// Value changed: flag the fixed-point bit and wake the fanout.
  void notify_changed() {
    tracker_->note_change();
    if (tracker_->event_mode()) {
      for (Process* r : fanout_) tracker_->enqueue(*r);
    }
  }

 private:
  friend class ChangeTracker;

  ChangeTracker* tracker_;
  mutable std::vector<Process*> fanout_;
  mutable Process* last_reader_ = nullptr;
  Process* writer_ = nullptr;
  std::size_t registry_index_ = 0;
};

inline void ChangeTracker::register_wire(WireBase& w) {
  w.registry_index_ = wires_.size();
  wires_.push_back(&w);
}

inline void ChangeTracker::unregister_wire(WireBase& w) noexcept {
  const std::size_t i = w.registry_index_;
  wires_[i] = wires_.back();
  wires_[i]->registry_index_ = i;
  wires_.pop_back();
}

inline void ChangeTracker::forget(Component& c) {
  const auto owned = [&c](const Process* p) { return p != nullptr && p->owner == &c; };
  for (WireBase* w : wires_) {
    if (owned(w->writer_)) w->writer_ = nullptr;
    if (owned(w->last_reader_)) w->last_reader_ = nullptr;
    auto& f = w->fanout_;
    for (std::size_t i = f.size(); i-- > 0;) {
      if (owned(f[i])) {
        f[i] = f.back();
        f.pop_back();
      }
    }
  }
  auto& wl = worklist_;
  for (std::size_t i = wl.size(); i-- > 0;) {
    if (owned(wl[i])) {
      wl.erase(wl.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  if (owned(evaluating_)) evaluating_ = nullptr;
  topology_dirty_ = true;
}

/// Mirror slot of a bool wire: the wire's settled value is kept, bit for
/// bit, inside a caller-owned packed word (see Wire<bool>::mirror_to_bit).
struct WireBitMirror {
  std::uint64_t* word = nullptr;
  std::uint64_t bit = 0;
};
struct WireNoMirror {};

/// A combinational signal carrying a value of type T.
///
/// Semantics: writes are "blocking" within the settle loop — readers that
/// evaluate after the writer in the same iteration see the new value, and
/// the loop re-runs until no write changes any wire. T must be equality
/// comparable and cheap to copy or move.
template <typename T>
class Wire : public WireBase {
 public:
  explicit Wire(ChangeTracker& tracker, T initial = T{})
      : WireBase(tracker), value_(std::move(initial)) {}

  Wire(Wire&&) = default;

  [[nodiscard]] const T& get() const {
    record_read();
    return value_;
  }

  void set(const T& v) {
    record_write();
    if (!(value_ == v)) {
      value_ = v;
      if constexpr (std::is_same_v<T, bool>) {
        if (mirror_.word != nullptr) {
          if (v) {
            *mirror_.word |= mirror_.bit;
          } else {
            *mirror_.word &= ~mirror_.bit;
          }
        }
      }
      notify_changed();
      if (forward_ != nullptr) forward_->set(v);
    }
  }

  /// bool wires only: mirrors this wire's value into bit `bit` of the
  /// caller-owned packed `word` on every value change (and syncs it now).
  /// This is how MtChannel maintains its active-thread valid mask directly
  /// from valid-wire writes — reading the mask costs nothing per cycle and
  /// never goes stale, because every path that can change the wire
  /// (component evals, wire forwarding, external test writes) funnels
  /// through set(). The word must outlive the wire.
  void mirror_to_bit(std::uint64_t* word, unsigned bit)
    requires std::is_same_v<T, bool>
  {
    mirror_.word = word;
    mirror_.bit = std::uint64_t{1} << bit;
    if (value_) {
      *word |= mirror_.bit;
    } else {
      *word &= ~mirror_.bit;
    }
  }

  /// Declares `dst` a zero-logic combinational alias of this wire — the
  /// Verilog `assign dst = this` of a pure passthrough, e.g. an
  /// operator's ready line. Every value change propagates to dst
  /// immediately inside the same set(), so no process ever has to be
  /// scheduled to copy it; dst's writer/fanout records attribute the
  /// write to whatever process drove the origin, which is exactly the
  /// dependency the levelization needs. Transitive chains work (dst may
  /// forward onward); forwarding cycles are a wiring short and are the
  /// caller's responsibility to not create. One target per wire.
  void forward_to(Wire<T>& dst) {
    forward_ = &dst;
    dst.set(value_);
  }

  void save_value(SnapshotWriter& w) const final { snapshot_write_value<T>(w, value_); }

  void load_value(SnapshotReader& r) final { set(snapshot_read_value<T>(r)); }

 private:
  T value_;
  Wire<T>* forward_ = nullptr;
  // Zero-size for non-bool wires; bool wires pay two words.
  [[no_unique_address]] std::conditional_t<std::is_same_v<T, bool>, WireBitMirror,
                                           WireNoMirror>
      mirror_;
};

}  // namespace mte::sim
