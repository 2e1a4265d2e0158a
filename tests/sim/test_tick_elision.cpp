// Tick elision: a fully stalled elastic structure must cost the event
// kernel NOTHING — quiescent components are neither ticked nor
// re-evaluated for the whole stall (observed through the kernel-maintained
// per-component call counters), and when the stall releases mid-run the
// simulation stays lockstep-equal to the naive reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "elastic/channel.hpp"
#include "elastic/elastic_buffer.hpp"
#include "elastic/function_unit.hpp"
#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "mt/full_meb.hpp"
#include "mt/mt_channel.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mte;
using Word = std::uint64_t;

/// src -> eb0 -> fu(+1) -> eb1 -> sink, hand-built so the test can reach
/// the component counters directly.
struct StPipeline {
  explicit StPipeline(sim::KernelKind kernel) : s(kernel) {
    for (int i = 0; i < 4; ++i) {
      const std::string id = std::to_string(i);
      ch.push_back(&s.make<elastic::Channel<Word>>(s, "c" + id));
    }
    src = &s.make<elastic::Source<Word>>(s, "src", *ch[0]);
    eb0 = &s.make<elastic::ElasticBuffer<Word>>(s, "eb0", *ch[0], *ch[1]);
    fu = &s.make<elastic::FunctionUnit<Word, Word>>(
        s, "fu", *ch[1], *ch[2], [](const Word& v) { return v + 1; });
    eb1 = &s.make<elastic::ElasticBuffer<Word>>(s, "eb1", *ch[2], *ch[3]);
    sink = &s.make<elastic::Sink<Word>>(s, "sink", *ch[3]);
    src->set_generator([](std::uint64_t i) { return 10 * i; });
    s.reset();
  }

  sim::Simulator s;
  std::vector<elastic::Channel<Word>*> ch;
  elastic::Source<Word>* src = nullptr;
  elastic::ElasticBuffer<Word>* eb0 = nullptr;
  elastic::FunctionUnit<Word, Word>* fu = nullptr;
  elastic::ElasticBuffer<Word>* eb1 = nullptr;
  elastic::Sink<Word>* sink = nullptr;
};

::testing::AssertionResult channels_equal(const StPipeline& a, const StPipeline& b) {
  for (std::size_t i = 0; i < a.ch.size(); ++i) {
    if (a.ch[i]->valid.get() != b.ch[i]->valid.get() ||
        a.ch[i]->ready.get() != b.ch[i]->ready.get() ||
        a.ch[i]->data.get() != b.ch[i]->data.get()) {
      return ::testing::AssertionFailure() << "channel " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TickElision, StalledStPipelineFreezesBuffersAndWakesLockstep) {
  // The sink refuses everything during [40, 200): the EB chain fills to
  // FULL and every buffer becomes quiescent. The naive pipeline runs
  // alongside as the oracle for the whole run, including the release.
  StPipeline ev(sim::KernelKind::kEventDriven);
  StPipeline na(sim::KernelKind::kNaive);
  ev.sink->add_stall_window(40, 200);
  na.sink->add_stall_window(40, 200);

  const auto step_both = [&] {
    ev.s.step();
    na.s.step();
    ASSERT_TRUE(channels_equal(ev, na)) << "at cycle " << ev.s.now();
  };

  for (int i = 0; i < 60; ++i) step_both();  // stall hit, buffers filled

  // Steady stalled state: capture the counters...
  const std::uint64_t eb0_evals = ev.eb0->kernel_eval_calls();
  const std::uint64_t eb0_ticks = ev.eb0->kernel_tick_calls();
  const std::uint64_t eb1_evals = ev.eb1->kernel_eval_calls();
  const std::uint64_t eb1_ticks = ev.eb1->kernel_tick_calls();
  const std::uint64_t fu_evals = ev.fu->kernel_eval_calls();
  const std::uint64_t sim_evals = ev.s.eval_count();
  const std::uint64_t elided = ev.s.elided_tick_count();

  for (int i = 0; i < 100; ++i) step_both();  // ...and run deep into the stall

  // Zero ticks, zero evals for the quiescent components over 100 cycles.
  EXPECT_EQ(ev.eb0->kernel_eval_calls(), eb0_evals);
  EXPECT_EQ(ev.eb0->kernel_tick_calls(), eb0_ticks);
  EXPECT_EQ(ev.eb1->kernel_eval_calls(), eb1_evals);
  EXPECT_EQ(ev.eb1->kernel_tick_calls(), eb1_ticks);
  EXPECT_EQ(ev.fu->kernel_eval_calls(), fu_evals);
  EXPECT_EQ(ev.s.elided_tick_count(), elided + 2 * 100);  // both EBs, every cycle
  // The whole simulator idles at the source/sink floor (their state can
  // move, so they are never elided).
  EXPECT_LE(ev.s.eval_count() - sim_evals, 2 * 100u);

  // Release mid-run: the buffers wake the very cycle the sink's ready
  // rises, and the run stays lockstep-equal with tokens flowing again.
  const std::uint64_t delivered_before = ev.sink->count();
  for (int i = 0; i < 140; ++i) step_both();
  EXPECT_GT(ev.sink->count(), delivered_before + 90);
  EXPECT_GT(ev.eb0->kernel_tick_calls(), eb0_ticks);
  EXPECT_EQ(ev.sink->received(), na.sink->received());
}

TEST(TickElision, StarvedMebPipelineFreezesAndWakesLockstep) {
  // Multithreaded flavour: both source threads stop offering during
  // [60, 260) and the MEBs drain empty. An empty MEB's arbiter has no
  // pending thread (no speculative rotation), so the whole stage is
  // quiescent until tokens return.
  const std::size_t kThreads = 2;
  const auto build = [&](sim::KernelKind kernel, auto&& body) {
    sim::Simulator s(kernel);
    auto& c0 = s.make<mt::MtChannel<Word>>(s, "c0", kThreads);
    auto& c1 = s.make<mt::MtChannel<Word>>(s, "c1", kThreads);
    auto& c2 = s.make<mt::MtChannel<Word>>(s, "c2", kThreads);
    auto& src = s.make<mt::MtSource<Word>>(s, "src", c0);
    auto& m0 = s.make<mt::FullMeb<Word>>(s, "m0", c0, c1);
    auto& m1 = s.make<mt::FullMeb<Word>>(s, "m1", c1, c2);
    auto& sink = s.make<mt::MtSink<Word>>(s, "sink", c2);
    for (std::size_t t = 0; t < kThreads; ++t) {
      src.set_generator(t, [t](std::uint64_t i) { return (t << 20) + i; });
      src.add_stall_window(t, 60, 260);
    }
    s.reset();
    body(s, src, m0, m1, sink);
  };

  std::vector<std::pair<std::size_t, Word>> naive_order;
  build(sim::KernelKind::kNaive,
        [&](sim::Simulator& s, auto& /*src*/, auto& /*m0*/, auto& /*m1*/, auto& sink) {
          s.run(400);
          naive_order = sink.order();
        });

  build(sim::KernelKind::kEventDriven,
        [&](sim::Simulator& s, auto& /*src*/, auto& m0, auto& m1, auto& sink) {
          s.run(100);  // stall hit at 60; a drained pipeline by ~70
          const std::uint64_t m0_evals = m0.kernel_eval_calls();
          const std::uint64_t m0_ticks = m0.kernel_tick_calls();
          const std::uint64_t m1_evals = m1.kernel_eval_calls();
          const std::uint64_t m1_ticks = m1.kernel_tick_calls();
          s.run(150);
          EXPECT_EQ(m0.kernel_eval_calls(), m0_evals);
          EXPECT_EQ(m0.kernel_tick_calls(), m0_ticks);
          EXPECT_EQ(m1.kernel_eval_calls(), m1_evals);
          EXPECT_EQ(m1.kernel_tick_calls(), m1_ticks);
          EXPECT_EQ(m0.total_occupancy(), 0);
          s.run(150);  // release at 260; tokens flow again
          EXPECT_GT(m0.kernel_tick_calls(), m0_ticks);
          EXPECT_EQ(sink.order(), naive_order);  // lockstep-equal delivery
        });
}

TEST(TickElision, NaiveKernelNeverElides) {
  StPipeline na(sim::KernelKind::kNaive);
  na.sink->add_stall_window(10, 80);
  const std::uint64_t ticks = na.eb0->kernel_tick_calls();
  na.s.run(100);
  EXPECT_EQ(na.eb0->kernel_tick_calls(), ticks + 100);
  EXPECT_EQ(na.s.elided_tick_count(), 0u);
}

}  // namespace
