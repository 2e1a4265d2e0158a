// FIG1: reproduces the paper's Fig. 1 — the behavioural comparison of
// (a) inelastic synchronous operation, (b) single-thread elastic
// operation with a variable-latency unit, and (c) multithreaded elastic
// operation where a second thread fills the empty slots. Printed as
// output timelines; the quantitative claim: the MT-elastic pipeline's
// channel utilization approaches 100 % while the single-thread elastic
// one is limited by the variable-latency unit.
//
// Both elastic variants are described through the fluent CircuitBuilder;
// the deterministic latency pattern of the variable-latency unit enters
// through a custom node kind registered with the ComponentFactory.
#include <cstdio>

#include "elastic/var_latency.hpp"
#include "netlist/builder.hpp"
#include "sim/trace.hpp"

namespace {

using namespace mte;
using netlist::Word;

// Latency pattern of the "variable latency unit": every 3rd token is slow.
unsigned latency_of(Word tok) { return tok % 3 == 2 ? 3u : 1u; }

double run_inelastic(sim::Timeline& tl, int cycles) {
  // A rigid synchronous pipeline must always budget the worst-case
  // latency: one result every max-latency cycles.
  const unsigned worst = 3;
  int produced = 0;
  for (int c = 0; c < cycles; ++c) {
    if (c % worst == static_cast<int>(worst) - 1) {
      const std::string count = std::to_string(produced);
      tl.put("inelastic out", c, "A" + count);
      ++produced;
    }
  }
  return static_cast<double>(produced) / cycles;
}

double run_elastic(sim::Timeline& tl, int cycles) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.custom("vl", "pattern_vl", 1, 1) >> b.buffer("eb")
      >> b.sink("sink");

  auto factory = netlist::ComponentFactory::with_defaults();
  factory.register_custom_st("pattern_vl", [](const netlist::StContext& ctx) {
    auto& vl = ctx.sim.make<elastic::VariableLatencyUnit<Word>>(
        ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0));
    vl.set_latency_fn(latency_of);
  });

  auto e = b.elaborate(netlist::FunctionRegistry::with_defaults(), factory);
  e.source("src").set_generator([](std::uint64_t i) { return i; });
  auto& out = e.channel("eb");
  e.simulator().on_cycle([&](sim::Cycle c) {
    if (!out.fired()) return;
    const std::string value = std::to_string(out.data.get());
    tl.put("elastic out", c, "A" + value);
  });
  e.simulator().reset();
  e.simulator().run(cycles);
  return static_cast<double>(e.sink("sink").count()) / cycles;
}

double run_mt_elastic(sim::Timeline& tl, int cycles) {
  // Two threads time-multiplexed on one channel through a full MEB:
  // thread B's tokens fill the slots thread A leaves empty.
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb") >> b.sink("sink");
  auto e = b.then_multithreaded(2, mt::MebKind::kFull).elaborate();

  // Model each thread's producer as variable-rate injection with the same
  // duty cycle as the variable-latency unit (2 fast + 1 slow per 3).
  auto& src = e.mt_source("src");
  src.set_generator(0, [](std::uint64_t i) { return i; });
  src.set_generator(1, [](std::uint64_t i) { return 1000 + i; });
  src.set_rate(0, 0.7, 42);
  src.set_rate(1, 0.7, 43);
  auto& out = e.mt_channel("meb");
  e.simulator().on_cycle([&](sim::Cycle c) {
    const std::size_t t = out.fired_thread();
    if (t < 2) {
      const std::string value = std::to_string(out.data.get() % 1000);
      tl.put("mt-elastic out", c, (t == 0 ? "A" : "B") + value);
    }
  });
  e.simulator().reset();
  e.simulator().run(cycles);
  return static_cast<double>(e.mt_sink("sink").total_count()) / cycles;
}

}  // namespace

int main() {
  std::printf("FIG1 reproduction: inelastic vs elastic vs multithreaded elastic\n\n");
  const int cycles = 24;
  sim::Timeline tl;
  tl.declare_row("inelastic out");
  tl.declare_row("elastic out");
  tl.declare_row("mt-elastic out");
  const double inelastic = run_inelastic(tl, cycles);
  const double elastic = run_elastic(tl, cycles);
  const double mt = run_mt_elastic(tl, cycles);
  std::printf("%s\n", tl.render(0, cycles - 1).c_str());

  // Longer runs for stable utilization numbers.
  sim::Timeline scratch;
  const double elastic_long = run_elastic(scratch, 3000);
  const double mt_long = run_mt_elastic(scratch, 3000);
  std::printf("channel utilization (tokens/cycle, 3000 cycles):\n");
  std::printf("  inelastic (worst-case clocking): %.2f\n", inelastic);
  std::printf("  elastic, 1 thread              : %.2f\n", elastic_long);
  std::printf("  elastic, 2 threads (MT)        : %.2f\n", mt_long);
  (void)elastic;
  (void)mt;

  const bool shape =
      elastic_long > inelastic && mt_long > elastic_long && mt_long > 0.85;
  std::printf("shape check (elastic > inelastic, MT fills the gaps): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
