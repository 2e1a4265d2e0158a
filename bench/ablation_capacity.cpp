// ABL-SLOTS: MEB capacity ablation.
//
// Sweeps the shared-slot pool size K of the ReducedMeb (K = 0 .. S) on a
// 3-stage, 4-thread pipeline and reports (a) survivor throughput in the
// all-but-one-blocked corner case and (b) aggregate throughput under
// uniform random backpressure, together with the modelled area. Expected
// shape: K = 1 (the paper's reduced MEB) already recovers full uniform
// throughput; only the corner case benefits from K > 1; area grows
// linearly in K towards the full MEB's 2S slots.
#include <cstdio>

#include "area/cost_model.hpp"
#include "mt/mt_channel.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "mt/reduced_meb.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mte;
using Token = std::uint64_t;

struct Rig {
  explicit Rig(std::size_t threads, std::size_t stages, std::size_t k)
      : threads_(threads) {
    for (std::size_t i = 0; i <= stages; ++i) {
      const std::string index = std::to_string(i);
      chans_.push_back(&s.make<mt::MtChannel<Token>>(s, "c" + index, threads));
    }
    for (std::size_t i = 0; i < stages; ++i) {
      const std::string index = std::to_string(i);
      mebs_.push_back(&s.make<mt::ReducedMeb<Token>>(s, "m" + index, *chans_[i],
                                                     *chans_[i + 1], nullptr, k));
    }
    src_ = &s.make<mt::MtSource<Token>>(s, "src", *chans_.front());
    sink_ = &s.make<mt::MtSink<Token>>(s, "sink", *chans_.back());
    for (std::size_t t = 0; t < threads; ++t) {
      src_->set_generator(t, [t](std::uint64_t i) { return t * 100000 + i; });
    }
  }

  sim::Simulator s;
  std::size_t threads_;
  std::vector<mt::MtChannel<Token>*> chans_;
  std::vector<mt::ReducedMeb<Token>*> mebs_;
  mt::MtSource<Token>* src_ = nullptr;
  mt::MtSink<Token>* sink_ = nullptr;
};

double corner_survivor_rate(std::size_t threads, std::size_t k) {
  Rig rig(threads, 3, k);
  for (std::size_t t = 1; t < threads; ++t) {
    rig.sink_->add_stall_window(t, 0, 1000000);  // everyone but thread 0 blocked
  }
  rig.s.reset();
  rig.s.run(300);  // saturate
  const auto before = rig.sink_->count(0);
  rig.s.run(400);
  return static_cast<double>(rig.sink_->count(0) - before) / 400.0;
}

double uniform_rate(std::size_t threads, std::size_t k) {
  Rig rig(threads, 3, k);
  for (std::size_t t = 0; t < threads; ++t) rig.sink_->set_rate(t, 0.8, 900 + t);
  rig.s.reset();
  rig.s.run(4000);
  return static_cast<double>(rig.sink_->total_count()) / 4000.0;
}

}  // namespace

int main() {
  const std::size_t threads = 4;
  area::CostModel model;
  std::printf("ABL-SLOTS: ReducedMeb shared-pool size K (S = %zu, 3 stages)\n\n", threads);
  std::printf("| K | slots | survivor rate | uniform rate | area (LE, W=64) |\n");
  std::printf("|---|-------|---------------|--------------|-----------------|\n");
  std::vector<double> corner;
  std::vector<double> uniform;
  for (std::size_t k = 0; k <= threads; ++k) {
    const double c = corner_survivor_rate(threads, k);
    const double u = uniform_rate(threads, k);
    corner.push_back(c);
    uniform.push_back(u);
    // Area: interpolate between reduced (K=1) and full (K=S) register cost.
    const double les =
        threads * (64.0 + model.params().le_meb_thread_control) + k * 64.0 +
        64.0 * model.params().le_per_mux2_bit + model.params().le_shared_control * k +
        model.out_mux_les(64, threads) + model.arbiter_les(threads);
    std::printf("| %zu | %5zu | %13.3f | %12.3f | %15.0f |\n", k, threads + k, c, u,
                les);
  }
  std::printf("\nexpected: survivor rate 0.5 at K<=1 rising to ~1.0 at K=S;\n");
  std::printf("uniform rate already maximal at K=1 (the paper's design point).\n");
  const bool ok = corner[1] > 0.4 && corner[1] < 0.6 && corner[threads] > 0.9 &&
                  uniform[1] > 0.95 * uniform[threads];
  std::printf("shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
