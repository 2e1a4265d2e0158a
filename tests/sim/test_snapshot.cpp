// Checkpoint/restore (Simulator::save / Simulator::restore):
//  - snapshot differ: reset + rerun must produce byte-identical snapshots
//    on every curated circuit under both kernels (reset() completeness);
//  - resume equivalence: a restored simulator must be cycle-for-cycle
//    wire-identical to the straight run it resumes, end with a
//    byte-identical snapshot and identical probe statistics;
//  - cross-kernel restore: a snapshot taken under the naive kernel must
//    restore under the event-driven kernel (and vice versa) because
//    restore rematerializes scheduler state instead of trusting it;
//  - malformed snapshots (bad magic/version, truncation, trailing bytes,
//    payload corruption, wrong circuit, crafted counts) must be rejected
//    loudly;
//  - per-cycle observers restart empty after a restore, with event cycles
//    continuing from the snapshot cycle (documented semantics: what an
//    on_cycle observer records is external to the simulator and is NOT
//    checkpointed, unlike ChannelProbe statistics which restore with the
//    snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chain_circuit.hpp"
#include "elastic/elastic_buffer.hpp"
#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "kernel_lockstep.hpp"
#include "md5/md5_circuit.hpp"
#include "mt/mt_sink.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_circuits.hpp"

namespace {

using namespace mte;
using kerneltest::channels_equal;
using kerneltest::probes_equal;
using netlist::Elaboration;
using snaptest::SnapshotCase;
using snaptest::snapshot_cases;

std::string snapshot_of(sim::Simulator& s) {
  std::ostringstream os;
  s.save(os);
  return os.str();
}

void restore_from(sim::Simulator& s, const std::string& bytes) {
  std::istringstream is(bytes);
  s.restore(is);
}

std::unique_ptr<Elaboration> make_elab(const SnapshotCase& c, sim::KernelKind kernel) {
  static const auto registry = netlist::FunctionRegistry::with_defaults();
  static const auto factory = netlist::ComponentFactory::defaults();
  netlist::ElaborationOptions opt;
  opt.kernel = kernel;
  opt.meb_shared_slots = c.meb_shared_slots;
  auto e = std::make_unique<Elaboration>(c.net, registry, factory, opt);
  c.configure(*e);
  e->simulator().reset();
  return e;
}

void step_n(sim::Simulator& s, sim::Cycle n) {
  for (sim::Cycle i = 0; i < n; ++i) s.step();
}

constexpr std::array<sim::KernelKind, 2> kKernels = {sim::KernelKind::kNaive,
                                                     sim::KernelKind::kEventDriven};

const char* kernel_name(sim::KernelKind k) {
  return k == sim::KernelKind::kNaive ? "naive" : "event";
}

// --- snapshot differ ---------------------------------------------------------

// save -> reset -> run K -> save must byte-match run-K-from-fresh -> save:
// any component whose reset() misses a field its save_state() covers (or
// vice versa) diverges here.
TEST(SnapshotDiffer, ResetRerunByteIdentical) {
  for (const auto& c : snapshot_cases()) {
    for (const auto kernel : kKernels) {
      SCOPED_TRACE(c.name + std::string(" / ") + kernel_name(kernel));
      auto e = make_elab(c, kernel);
      step_n(e->simulator(), 400);
      const std::string fresh = snapshot_of(e->simulator());

      e->simulator().reset();
      step_n(e->simulator(), 400);
      const std::string rerun = snapshot_of(e->simulator());
      EXPECT_EQ(fresh, rerun) << "reset() does not reproduce the fresh-run state";
    }
  }
}

// --- resume equivalence ------------------------------------------------------

TEST(SnapshotRestore, ResumeMatchesStraightRun) {
  constexpr sim::Cycle kWarm = 250;
  constexpr sim::Cycle kTail = 250;
  for (const auto& c : snapshot_cases()) {
    for (const auto kernel : kKernels) {
      SCOPED_TRACE(c.name + std::string(" / ") + kernel_name(kernel));
      auto straight = make_elab(c, kernel);
      step_n(straight->simulator(), kWarm);
      const std::string snap = snapshot_of(straight->simulator());

      auto resumed = make_elab(c, kernel);
      restore_from(resumed->simulator(), snap);
      ASSERT_EQ(resumed->simulator().now(), kWarm);

      const auto names = straight->channel_names();
      for (sim::Cycle i = 0; i < kTail; ++i) {
        straight->simulator().step();
        resumed->simulator().step();
        const auto wires = channels_equal(*straight, *resumed);
        if (!wires) {
          ADD_FAILURE() << wires.message() << " at cycle " << kWarm + i + 1;
          return;
        }
      }
      EXPECT_TRUE(probes_equal(*straight, *resumed, names));
      EXPECT_EQ(snapshot_of(straight->simulator()), snapshot_of(resumed->simulator()))
          << "resumed run diverged from the straight run it restored";
    }
  }
}

TEST(SnapshotRestore, CrossKernelRestore) {
  constexpr sim::Cycle kWarm = 250;
  constexpr sim::Cycle kTail = 250;
  for (const auto& c : snapshot_cases()) {
    for (const auto save_kernel : kKernels) {
      const auto restore_kernel = save_kernel == sim::KernelKind::kNaive
                                      ? sim::KernelKind::kEventDriven
                                      : sim::KernelKind::kNaive;
      SCOPED_TRACE(c.name + std::string(" / save=") + kernel_name(save_kernel) +
                   " restore=" + kernel_name(restore_kernel));
      auto saver = make_elab(c, save_kernel);
      step_n(saver->simulator(), kWarm);
      const std::string snap = snapshot_of(saver->simulator());

      // Straight run under the restore kernel is the reference.
      auto straight = make_elab(c, restore_kernel);
      step_n(straight->simulator(), kWarm);
      auto resumed = make_elab(c, restore_kernel);
      restore_from(resumed->simulator(), snap);
      ASSERT_EQ(resumed->simulator().now(), kWarm);

      for (sim::Cycle i = 0; i < kTail; ++i) {
        straight->simulator().step();
        resumed->simulator().step();
        const auto wires = channels_equal(*straight, *resumed);
        if (!wires) {
          ADD_FAILURE() << wires.message() << " at cycle " << kWarm + i + 1;
          return;
        }
      }
      EXPECT_EQ(snapshot_of(straight->simulator()), snapshot_of(resumed->simulator()));
    }
  }
}

// --- malformed snapshots -----------------------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    case_ = snapshot_cases().front();  // fig1_full_rate
    auto e = make_elab(case_, sim::KernelKind::kEventDriven);
    step_n(e->simulator(), 100);
    snap_ = snapshot_of(e->simulator());
  }

  void expect_reject(const std::string& bytes, const std::string& what) {
    auto e = make_elab(case_, sim::KernelKind::kEventDriven);
    EXPECT_THROW(restore_from(e->simulator(), bytes), sim::SnapshotError) << what;
  }

  SnapshotCase case_;
  std::string snap_;
};

TEST_F(SnapshotRejectTest, BadMagic) {
  std::string s = snap_;
  s[0] ^= 0x40;
  expect_reject(s, "bad magic");
}

TEST_F(SnapshotRejectTest, VersionMismatch) {
  std::string s = snap_;
  s[8] = static_cast<char>(sim::kSnapshotVersion + 1);  // version u32 LE at offset 8
  expect_reject(s, "future version");
}

TEST_F(SnapshotRejectTest, Truncated) {
  expect_reject(snap_.substr(0, 4), "cut inside the magic");
  expect_reject(snap_.substr(0, snap_.size() / 2), "cut mid-payload");
  expect_reject(snap_.substr(0, snap_.size() - 1), "one byte short");
}

TEST_F(SnapshotRejectTest, TrailingGarbage) {
  expect_reject(snap_ + "tail", "trailing bytes");
}

TEST_F(SnapshotRejectTest, PayloadCorruption) {
  // Flip a byte of the last component's CRC32 (the 4 bytes right before
  // the 8-byte end marker): the frame check must fail loudly, never
  // restore silently.
  std::string s = snap_;
  s[s.size() - 9] ^= 0x01;
  expect_reject(s, "corrupt component frame CRC");
}

TEST_F(SnapshotRejectTest, WrongCircuit) {
  const auto cases = snapshot_cases();
  const auto& other = cases[2];  // fork_join_diamond
  auto e = make_elab(other, sim::KernelKind::kEventDriven);
  EXPECT_THROW(restore_from(e->simulator(), snap_), sim::SnapshotError);
}

TEST(SnapshotCounts, HugeCountsThrowSnapshotError) {
  // A crafted count under a valid CRC must fail as SnapshotError before
  // anything is sized by it, never as length_error or bad_alloc.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const auto framed = [](const std::vector<std::uint8_t>& payload) {
    sim::SnapshotWriter w;
    const std::size_t frame = w.begin_frame();
    for (const std::uint8_t b : payload) w.write_u8(b);
    w.end_frame(frame);
    w.write_u64(sim::kSnapshotEnd);  // bytes past the frame do not count
    return sim::SnapshotReader(w.bytes());
  };
  const auto with_count_at = [](std::vector<std::uint8_t> bytes, std::size_t offset) {
    for (int k = 0; k < 8; ++k) {
      bytes[offset + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(kHuge >> (8 * k));
    }
    return bytes;
  };

  sim::SnapshotWriter vec;
  sim::snapshot_write_vector(vec, std::vector<std::uint64_t>{7});
  sim::SnapshotReader r = framed(with_count_at(vec.bytes(), 0));
  (void)r.open_frame("vector");
  std::vector<std::uint64_t> v;
  EXPECT_THROW(sim::snapshot_read_vector(r, v), sim::SnapshotError);

  // MtSink's arrival log: the state of a fresh 2-thread sink, with its
  // trailing order_ count (the last u64 written) set to 2^40.
  sim::Simulator s;
  mt::MtChannel<std::uint64_t> ch(s, "ch", 2);
  mt::MtSink<std::uint64_t> sink(s, "sink", ch);
  sim::SnapshotWriter state;
  sink.save_state(state);
  sim::SnapshotReader sr = framed(with_count_at(state.bytes(), state.bytes().size() - 8));
  (void)sr.open_frame("sink");
  EXPECT_THROW(sink.load_state(sr), sim::SnapshotError);
}

// --- md5 digest cross-check --------------------------------------------------

sim::Cycle md5_run_to_done(md5::Md5Circuit& c, sim::Cycle max_cycles = 1u << 20) {
  while (!c.feeder().all_done()) {
    if (c.simulator().now() >= max_cycles) return 0;
    c.simulator().step();
  }
  return c.simulator().now();
}

TEST(SnapshotRestore, Md5DigestCrossCheck) {
  const std::vector<std::string> msgs = {"checkpoint", std::string(100, 'x'),
                                         "restore me"};
  for (const mt::MebKind kind : {mt::MebKind::kFull, mt::MebKind::kReduced}) {
    SCOPED_TRACE(to_string(kind));
    // Straight run for the reference cycle count.
    md5::Md5Circuit straight(msgs.size(), kind);
    for (std::size_t t = 0; t < msgs.size(); ++t) straight.set_message(t, msgs[t]);
    straight.simulator().reset();
    const sim::Cycle total = md5_run_to_done(straight);
    ASSERT_GT(total, 2u);
    const sim::Cycle warm = total / 2;

    // Save mid-flight under the naive kernel...
    md5::Md5Circuit saver(msgs.size(), kind, sim::KernelKind::kNaive);
    for (std::size_t t = 0; t < msgs.size(); ++t) saver.set_message(t, msgs[t]);
    saver.simulator().reset();
    for (sim::Cycle i = 0; i < warm; ++i) saver.simulator().step();
    ASSERT_FALSE(saver.feeder().all_done());
    std::ostringstream os;
    saver.simulator().save(os);

    // ...and restore under the event-driven kernel (the default).
    md5::Md5Circuit resumed(msgs.size(), kind);
    for (std::size_t t = 0; t < msgs.size(); ++t) resumed.set_message(t, msgs[t]);
    resumed.simulator().reset();
    std::istringstream is(os.str());
    resumed.simulator().restore(is);
    ASSERT_EQ(resumed.simulator().now(), warm);
    ASSERT_EQ(md5_run_to_done(resumed), total);
    for (std::size_t t = 0; t < msgs.size(); ++t) {
      EXPECT_EQ(resumed.digest_hex(t), md5::hex_digest(msgs[t])) << "thread " << t;
    }
  }
}

// --- trace observers across restore ------------------------------------------

namespace tracetest {

/// One completed transfer on the rig's output channel.
struct Transfer {
  sim::Cycle cycle = 0;
  std::uint64_t tag = 0;
  friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// src -> eb -> sink, with an observer recording every completed transfer
/// on the buffer's output channel.
struct Rig {
  Rig() {
    s.on_cycle([this](sim::Cycle c) {
      if (out.fired()) transfers.push_back(Transfer{c, out.data.get()});
    });
  }
  sim::Simulator s;
  elastic::Channel<std::uint64_t> in{s, "in"};
  elastic::Channel<std::uint64_t> out{s, "out"};
  elastic::Source<std::uint64_t> src{s, "src", in};
  elastic::ElasticBuffer<std::uint64_t> eb{s, "eb", in, out};
  elastic::Sink<std::uint64_t> sink{s, "sink", out};
  std::vector<Transfer> transfers;
};

}  // namespace tracetest

TEST(SnapshotRestore, TraceObserversRestartEmptyWithContinuedCycles) {
  tracetest::Rig straight;
  straight.src.set_generator([](std::uint64_t i) { return i; });
  straight.sink.set_rate(0.7, 9);
  straight.s.reset();
  step_n(straight.s, 120);

  tracetest::Rig warm;
  warm.src.set_generator([](std::uint64_t i) { return i; });
  warm.sink.set_rate(0.7, 9);
  warm.s.reset();
  step_n(warm.s, 60);
  const std::string snap = snapshot_of(warm.s);

  tracetest::Rig resumed;
  resumed.src.set_generator([](std::uint64_t i) { return i; });
  resumed.sink.set_rate(0.7, 9);
  resumed.s.reset();
  restore_from(resumed.s, snap);
  EXPECT_TRUE(resumed.transfers.empty()) << "restore must not synthesize trace events";
  step_n(resumed.s, 60);

  // The restarted observer holds exactly the straight run's events after
  // the snapshot point, with their original (continued) cycle stamps.
  // Observers run while now() is still the pre-increment cycle, so the
  // first step after a restore at cycle 60 records events stamped 60.
  std::vector<tracetest::Transfer> expected;
  for (const auto& ev : straight.transfers) {
    if (ev.cycle >= 60) expected.push_back(ev);
  }
  EXPECT_EQ(resumed.transfers, expected);
}

// --- probe counters restore (not restart) ------------------------------------

TEST(SnapshotRestore, ChannelProbeCountersRestoreFromSnapshot) {
  const auto cases = snapshot_cases();
  const auto& c = cases[1];  // fig1_backpressured: nontrivial waits
  auto a = make_elab(c, sim::KernelKind::kEventDriven);
  step_n(a->simulator(), 300);
  const std::string snap = snapshot_of(a->simulator());

  auto b = make_elab(c, sim::KernelKind::kEventDriven);
  restore_from(b->simulator(), snap);
  for (const auto& name : a->channel_names()) {
    EXPECT_EQ(a->probe(name).count(), b->probe(name).count()) << name;
    EXPECT_EQ(a->probe(name).cycles(), b->probe(name).cycles()) << name;
    EXPECT_EQ(a->probe(name).mean_wait(), b->probe(name).mean_wait()) << name;
    EXPECT_EQ(a->probe(name).last_value(), b->probe(name).last_value()) << name;
  }
  EXPECT_GT(a->probe(a->channel_names().front()).count(), 0u);
}

// --- long snapshots ------------------------------------------------------------

/// A string buffer that records its largest single write and, when built
/// unseekable, refuses to tell or move its position, like a pipe.
class WitnessBuf : public std::stringbuf {
 public:
  explicit WitnessBuf(std::string bytes = {}, bool seekable = true)
      : std::stringbuf(std::move(bytes)), seekable_(seekable) {}
  std::streamsize largest_write = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    largest_write = std::max(largest_write, n);
    return std::stringbuf::xsputn(s, n);
  }
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    return seekable_ ? std::stringbuf::seekoff(off, dir, which) : pos_type(-1);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekable_ ? std::stringbuf::seekpos(pos, which) : pos_type(-1);
  }

 private:
  bool seekable_;
};

TEST(SnapshotRestore, LongSnapshotLeavesTheWriterInPieces) {
  // save() hands a long snapshot to its stream a frame boundary at a
  // time, so it never buffers all of it; restore reads it back from
  // seekable and unseekable streams alike.
  auto a = chaintest::elaborate_chain(500, sim::KernelKind::kEventDriven);
  step_n(a->simulator(), 600);
  WitnessBuf out;
  std::ostream os(&out);
  a->simulator().save(os);
  const std::string snap = out.str();
  ASSERT_GT(snap.size(), std::size_t{2} << 16);
  EXPECT_LT(out.largest_write, static_cast<std::streamsize>(snap.size() / 2));
  EXPECT_EQ(snapshot_of(a->simulator()), snap);

  for (const bool seekable : {true, false}) {
    SCOPED_TRACE(seekable ? "seekable" : "unseekable");
    auto b = chaintest::elaborate_chain(500, sim::KernelKind::kEventDriven);
    WitnessBuf in(snap, seekable);
    std::istream is(&in);
    b->simulator().restore(is);
    EXPECT_EQ(snapshot_of(b->simulator()), snap);
  }
}

}  // namespace
