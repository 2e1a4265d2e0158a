#include <gtest/gtest.h>

#include <numeric>

#include "elastic/channel.hpp"
#include "elastic/elastic_buffer.hpp"
#include "elastic/sink.hpp"
#include "elastic/source.hpp"
#include "sim/simulator.hpp"

namespace mte::elastic {
namespace {

std::vector<std::uint64_t> iota_tokens(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

struct EbRig {
  sim::Simulator s;
  Channel<std::uint64_t> in{s, "in"};
  Channel<std::uint64_t> out{s, "out"};
  Source<std::uint64_t> src{s, "src", in};
  ElasticBuffer<std::uint64_t> eb{s, "eb", in, out};
  Sink<std::uint64_t> sink{s, "sink", out};
};

TEST(ElasticBuffer, FullThroughputWhenUncontended) {
  EbRig rig;
  rig.src.set_tokens(iota_tokens(50));
  rig.s.reset();
  rig.s.run(60);
  // 1-cycle forward latency, then one token per cycle.
  EXPECT_EQ(rig.sink.count(), 50u);
  EXPECT_EQ(rig.sink.received(), iota_tokens(50));
}

TEST(ElasticBuffer, OneTokenPerCycleSteadyState) {
  EbRig rig;
  rig.src.set_generator([](std::uint64_t i) { return i; });
  rig.s.reset();
  rig.s.run(100);
  // After the 1-cycle fill, exactly one token must arrive per cycle.
  EXPECT_EQ(rig.sink.count(), 99u);
}

TEST(ElasticBuffer, HoldsTwoTokensUnderStall) {
  EbRig rig;
  rig.src.set_tokens(iota_tokens(10));
  rig.sink.add_stall_window(0, 20);
  rig.s.reset();
  rig.s.run(20);
  EXPECT_EQ(rig.sink.count(), 0u);
  EXPECT_EQ(rig.eb.occupancy(), 2);  // EMPTY -> HALF -> FULL, then backpressure
  EXPECT_EQ(rig.eb.state(), EbState::kFull);
  rig.s.run(20);
  EXPECT_EQ(rig.sink.count(), 10u);
  EXPECT_EQ(rig.sink.received(), iota_tokens(10));
}

TEST(ElasticBuffer, NoLossNoReorderUnderRandomRates) {
  EbRig rig;
  rig.src.set_tokens(iota_tokens(200));
  rig.src.set_rate(0.7, 101);
  rig.sink.set_rate(0.6, 202);
  rig.s.reset();
  rig.s.run(1000);
  EXPECT_EQ(rig.sink.count(), 200u);
  EXPECT_EQ(rig.sink.received(), iota_tokens(200));
}

TEST(ElasticBuffer, BackpressurePropagatesUpstream) {
  EbRig rig;
  rig.src.set_generator([](std::uint64_t i) { return i; });
  rig.sink.add_stall_window(0, 50);
  rig.s.reset();
  rig.s.run(50);
  // Source delivered exactly the buffer capacity.
  EXPECT_EQ(rig.src.sent(), 2u);
}

TEST(ElasticBuffer, ChainOfBuffersPreservesOrder) {
  sim::Simulator s;
  Channel<std::uint64_t> c0{s, "c0"}, c1{s, "c1"}, c2{s, "c2"}, c3{s, "c3"};
  Source<std::uint64_t> src{s, "src", c0};
  ElasticBuffer<std::uint64_t> e0{s, "e0", c0, c1};
  ElasticBuffer<std::uint64_t> e1{s, "e1", c1, c2};
  ElasticBuffer<std::uint64_t> e2{s, "e2", c2, c3};
  Sink<std::uint64_t> sink{s, "sink", c3};
  src.set_tokens(iota_tokens(100));
  src.set_rate(0.5, 7);
  sink.set_rate(0.5, 8);
  s.reset();
  s.run(1000);
  EXPECT_EQ(sink.received(), iota_tokens(100));
}

TEST(ElasticBuffer, DataStableWhileValidUnconsumed) {
  EbRig rig;
  rig.src.set_tokens({42, 43});
  rig.sink.add_stall_window(0, 10);
  rig.s.reset();
  rig.s.run(5);
  rig.s.settle();
  EXPECT_TRUE(rig.out.valid.get());
  EXPECT_EQ(rig.out.data.get(), 42u);  // head-of-queue stays presented
  rig.s.run(3);
  rig.s.settle();
  EXPECT_EQ(rig.out.data.get(), 42u);
}

}  // namespace
}  // namespace mte::elastic
