// Scale regression for the static performance pass (analysis/perf.hpp),
// pinned by counters rather than timing: chains of 2x10^4 buffer+function
// stages (single-thread EBs, S=4 full MEBs, S=4 reduced MEBs) and a
// 24-tile x 200-stage S=4 netlist must each converge within three Howard
// iterations, pass the optimality certificate and bound throughput at 1.
// With a bounded iteration count and a linear certificate the pass stays
// O(V + E); a dense per-SCC table at this size would need gigabytes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "analysis/perf.hpp"
#include "mt/meb_variant.hpp"
#include "netlist/netlist.hpp"

namespace {

using namespace mte;
using netlist::Netlist;
using netlist::Node;

/// Appends source -> (buffer, function)^stages -> sink, names prefixed.
void add_pipeline(Netlist& net, const std::string& prefix, std::size_t stages) {
  std::size_t prev = net.add(Node::source(prefix + "src"));
  for (std::size_t j = 0; j < stages; ++j) {
    const std::size_t b = net.add(Node::buffer(prefix + "b" + std::to_string(j)));
    const std::size_t f = net.add(Node::function(prefix + "f" + std::to_string(j), "id"));
    net.connect(prev, 0, b, 0);
    net.connect(b, 0, f, 0);
    prev = f;
  }
  net.connect(prev, 0, net.add(Node::sink(prefix + "snk")), 0);
}

void expect_linear_pass(const Netlist& net, std::size_t sinks) {
  const analysis::PerfReport perf = analysis::analyze_perf(net);
  EXPECT_TRUE(perf.converged);
  EXPECT_TRUE(perf.karp_agrees) << "certificate rejected Howard's result";
  EXPECT_LE(perf.iterations, 3u);
  EXPECT_EQ(perf.aggregate_bound, 1.0);
  EXPECT_EQ(perf.sinks.size(), sinks);
}

TEST(PerfScale, LongChainsConvergeInFewIterations) {
  Netlist chain;
  add_pipeline(chain, "", 20000);
  {
    SCOPED_TRACE("single-thread EBs");
    expect_linear_pass(chain, 1);
  }
  {
    SCOPED_TRACE("S=4 full MEBs");
    expect_linear_pass(chain.to_multithreaded(4, mt::MebKind::kFull), 1);
  }
  {
    SCOPED_TRACE("S=4 reduced MEBs");
    expect_linear_pass(chain.to_multithreaded(4, mt::MebKind::kReduced), 1);
  }
}

TEST(PerfScale, TiledNetlistConvergesInFewIterations) {
  Netlist tiles;
  for (std::size_t t = 0; t < 24; ++t) {
    add_pipeline(tiles, 't' + std::to_string(t) + '_', 200);
  }
  expect_linear_pass(tiles.to_multithreaded(4, mt::MebKind::kFull), 24);
}

}  // namespace
