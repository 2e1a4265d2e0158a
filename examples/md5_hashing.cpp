// Example: hash eight messages concurrently on the multithreaded elastic
// MD5 engine (paper Sec. V-A) and verify every digest against the
// RFC 1321 reference implementation.
//
// The digest engine itself carries rich Md5Token payloads, but its
// topology is exactly a netlist the synthesis flow can express — so this
// example also rebuilds the engine's dataflow skeleton with the fluent
// CircuitBuilder (merge -> round unit -> MEB -> barrier -> exit branch,
// with the barrier registered as a custom kind in a ComponentFactory) and
// simulates it to show where the paper's round-loop spends its cycles.
#include <cstdio>
#include <string>
#include <vector>

#include "md5/md5_circuit.hpp"
#include "mt/barrier.hpp"
#include "netlist/builder.hpp"

namespace {

using namespace mte;
using netlist::Word;

// The Sec. V-A topology as an abstract netlist: tokens encode
// (message, round) as id*4 + round and loop until 4 rounds are done.
void round_loop_skeleton(std::size_t threads, mt::MebKind kind) {
  netlist::CircuitBuilder b;
  auto entry = b.merge("entry", 2);
  b.source("feeder") >> entry;
  auto exit_test = entry >> b.function("round", "inc") >> b.buffer("output_meb")
                         >> b.custom("barrier", "barrier", 1, 1)
                         >> b.branch("router", "rounds_done");
  exit_test.when_false() >> entry.in(1);
  exit_test.when_true() >> b.sink("digest");

  auto registry = netlist::FunctionRegistry::with_defaults();
  registry.add_pred("rounds_done", [](Word v) { return v % 4 == 0; });
  netlist::ComponentFactory factory;
  mt::Barrier<Word>* barrier = nullptr;
  factory.register_custom_mt("barrier", [&barrier](const netlist::MtContext& ctx) {
    barrier = &ctx.sim.make<mt::Barrier<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                               ctx.out(0));
  });

  auto design = b.then_multithreaded(threads, kind).elaborate(registry, factory);
  for (std::size_t t = 0; t < threads; ++t) {
    design.mt_source("feeder").set_tokens(t, {4 * (t + 1)});  // one message each
  }
  design.simulator().reset();
  design.simulator().run(400);

  std::printf("round-loop skeleton (%zu threads, %s MEB): %llu barrier releases, "
              "round-unit utilization %.2f tokens/cycle\n",
              threads, mt::to_string(kind),
              static_cast<unsigned long long>(barrier->releases()),
              design.probe("round").throughput());
}

}  // namespace

int main() {
  constexpr std::size_t kThreads = 8;

  const std::vector<std::string> messages = {
      "The quick brown fox jumps over the lazy dog",
      "",
      "abc",
      std::string(200, 'x'),  // multi-block message
      "elastic systems operate in a dataflow-like mode",
      "multithreading increases the utilization of processing units",
      "message digest",
      "hardware primitives for the synthesis of multithreaded elastic systems",
  };

  md5::Md5Circuit circuit(kThreads, mt::MebKind::kReduced);
  for (std::size_t t = 0; t < kThreads; ++t) circuit.set_message(t, messages[t]);

  const sim::Cycle cycles = circuit.run();
  if (cycles == 0) {
    std::printf("error: circuit did not converge\n");
    return 1;
  }

  std::printf("8-thread elastic MD5 (reduced MEBs) finished in %llu cycles\n",
              static_cast<unsigned long long>(cycles));
  std::printf("barrier releases (one per shared round): %llu\n\n",
              static_cast<unsigned long long>(circuit.barrier().releases()));
  bool all_ok = true;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string got = circuit.digest_hex(t);
    const std::string want = md5::hex_digest(messages[t]);
    const bool ok = got == want;
    all_ok = all_ok && ok;
    std::printf("thread %zu: %s %s \"%.40s%s\"\n", t, got.c_str(), ok ? "OK " : "BAD",
                messages[t].c_str(), messages[t].size() > 40 ? "..." : "");
  }
  std::printf("\n%s\n", all_ok ? "all digests match the RFC 1321 reference"
                               : "DIGEST MISMATCH");

  std::printf("\nabstract dataflow model of the same engine (CircuitBuilder):\n");
  round_loop_skeleton(kThreads, mt::MebKind::kReduced);
  return all_ok ? 0 : 1;
}
