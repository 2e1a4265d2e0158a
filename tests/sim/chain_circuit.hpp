// The buffered S=4 chain the kernel's warm-up tests run on:
// source -> (buffer, function)^stages -> sink with full MEBs, source rate
// 0.9 and sink rate 0.7 on every thread, channel probes off. While it
// fills, every cycle brings a token to a stage that has not seen one, so
// processes keep reading and writing wires they had not touched before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "netlist/builder.hpp"

namespace mte::chaintest {

inline constexpr std::size_t kThreads = 4;

/// Elaborates the chain on `kernel` and resets it (cycle 0, nothing run).
inline std::unique_ptr<netlist::Elaboration> elaborate_chain(std::size_t stages,
                                                             sim::KernelKind kernel) {
  netlist::CircuitBuilder b;
  auto tail = b.source("src") >> b.buffer("b0") >> b.function("f0", "inc");
  for (std::size_t i = 1; i < stages; ++i) {
    const std::string id = std::to_string(i);
    tail = tail >> b.buffer("b" + id) >> b.function("f" + id, "inc");
  }
  tail >> b.sink("snk");
  b.then_multithreaded(kThreads, mt::MebKind::kFull);
  netlist::ElaborationOptions options;
  options.channel_probes = false;
  options.kernel = kernel;
  auto e = std::make_unique<netlist::Elaboration>(
      b.build(), netlist::FunctionRegistry::with_defaults(),
      netlist::ComponentFactory::defaults(), options);
  for (std::size_t t = 0; t < kThreads; ++t) {
    e->mt_source("src").set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
    e->mt_source("src").set_rate(t, 0.9, 3 + t);
    e->mt_sink("snk").set_rate(t, 0.7, 5 + t);
  }
  e->simulator().reset();
  return e;
}

}  // namespace mte::chaintest
