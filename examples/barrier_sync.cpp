// Example: the multithreaded elastic barrier (paper Sec. IV-C, Fig. 8) as
// a phase synchronizer — three worker threads with wildly different
// arrival times are released together, phase after phase, and the run is
// dumped as a VCD waveform for inspection in GTKWave.
//
// The barrier is not a built-in netlist primitive: it enters the design
// as a custom node whose kind string resolves through a ComponentFactory,
// the registry of custom kinds — the extension mechanism for new paper
// primitives.
#include <cstdio>

#include "mt/barrier.hpp"
#include "netlist/builder.hpp"
#include "sim/vcd.hpp"

int main() {
  using namespace mte;
  using netlist::Word;
  constexpr std::size_t kThreads = 3;

  // Describe the flow: src -> MEB -> barrier -> sink.
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb") >> b.custom("barrier", "barrier", 1, 1)
      >> b.sink("sink");

  // Register a "barrier" kind; the built-in primitives need no registration.
  mt::Barrier<Word>* barrier = nullptr;
  netlist::ComponentFactory factory;
  factory.register_custom_mt("barrier", [&barrier](const netlist::MtContext& ctx) {
    barrier = &ctx.sim.make<mt::Barrier<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                               ctx.out(0));
  });

  auto design = b.then_multithreaded(kThreads, mt::MebKind::kReduced)
                    .elaborate(netlist::FunctionRegistry::with_defaults(), factory);
  sim::Simulator& s = design.simulator();

  // Three phases per thread; thread 2 is always late.
  auto& src = design.mt_source("src");
  for (std::size_t t = 0; t < kThreads; ++t) {
    src.set_tokens(t, {100 * t + 0, 100 * t + 1, 100 * t + 2});
    src.set_rate(t, t == 2 ? 0.15 : 0.9, 5 + t);
  }

  sim::VcdWriter vcd(s, "barrier_demo");
  vcd.add_signal("counter", 4, [&] { return barrier->counter(); });
  vcd.add_signal("go", 1, [&] { return barrier->go_flag() ? 1u : 0u; });
  for (std::size_t t = 0; t < kThreads; ++t) {
    vcd.add_signal("state" + std::to_string(t), 2, [&, t] {
      return static_cast<std::uint64_t>(barrier->state(t));
    });
  }

  std::vector<std::string> log;
  s.on_cycle([&](sim::Cycle c) {
    if (barrier->release_now().get()) {
      log.push_back("cycle " + std::to_string(c) + ": all arrived -> release " +
                    std::to_string(barrier->releases() + 1));
    }
  });

  s.reset();
  s.run(150);

  std::printf("barrier phases observed:\n");
  for (const auto& line : log) std::printf("  %s\n", line.c_str());
  std::printf("\nper-thread deliveries (in phase lockstep):\n");
  auto& sink = design.mt_sink("sink");
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::printf("  thread %zu: %llu tokens\n", t,
                static_cast<unsigned long long>(sink.count(t)));
  }
  const std::string vcd_path = "barrier_demo.vcd";
  if (vcd.write(vcd_path)) {
    std::printf("\nwaveform written to %s (open with GTKWave)\n", vcd_path.c_str());
  }
  return barrier->releases() == 3 ? 0 : 1;
}
