// FIG5: reproduces the paper's Fig. 5 — elastic flow on a 2-stage MEB
// pipeline with 2 threads, where thread B stalls at the output and is
// later released. Printed as a cycle-by-cycle timeline of the input
// channel, both MEBs' slot contents and the output channel, for (a) full
// MEBs and (b) reduced MEBs. The quantitative claim checked: while B is
// blocked to saturation, thread A keeps ~100 % of the channel with full
// MEBs but only ~50 % with reduced MEBs; after release both recover.
//
// The pipeline is described once with the fluent CircuitBuilder; the MEB
// flavour is the then_multithreaded knob, and the MEB slot introspection
// comes from the Elaboration's meb() handles.
#include <cstdio>
#include <string>

#include "netlist/builder.hpp"
#include "sim/trace.hpp"

namespace {

using namespace mte;
using Token = netlist::Word;

std::string label(Token v) {
  const char thread = v >= 1000 ? 'B' : 'A';
  const std::string value = std::to_string(v % 1000);
  return thread + value;
}

struct Result {
  double a_rate_during_stall = 0;
  std::uint64_t b_after_release = 0;
};

Result run(mt::MebKind kind, bool print) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb0") >> b.buffer("meb1") >> b.sink("sink");
  auto design = b.then_multithreaded(2, kind).elaborate();
  sim::Simulator& s = design.simulator();

  auto& src = design.mt_source("src");
  auto& sink = design.mt_sink("sink");
  src.set_generator(0, [](std::uint64_t i) { return i; });
  src.set_generator(1, [](std::uint64_t i) { return 1000 + i; });
  const sim::Cycle stall_start = 4, stall_end = 26;
  sink.add_stall_window(1, stall_start, stall_end);

  sim::Timeline tl;
  for (const char* row : {"input ch", "MEB0[A]", "MEB0[B]", "MEB0[sh]", "mid ch",
                          "MEB1[A]", "MEB1[B]", "MEB1[sh]", "output ch"}) {
    tl.declare_row(row);
  }
  auto& c_in = design.mt_channel("src");
  auto& c_mid = design.mt_channel("meb0");
  auto& c_out = design.mt_channel("meb1");
  const auto& meb0 = design.meb("meb0");
  const auto& meb1 = design.meb("meb1");
  std::uint64_t a_before = 0, a_after = 0, b_at_release = 0;
  s.on_cycle([&](sim::Cycle c) {
    auto fired_label = [](const mt::MtChannel<Token>& ch) -> std::string {
      const std::size_t t = ch.fired_thread();
      return t < ch.threads() ? label(ch.data.get()) : "";
    };
    const std::string in_l = fired_label(c_in), mid_l = fired_label(c_mid),
                      out_l = fired_label(c_out);
    if (!in_l.empty()) tl.put("input ch", c, in_l);
    if (!mid_l.empty()) tl.put("mid ch", c, mid_l);
    if (!out_l.empty()) tl.put("output ch", c, out_l);
    auto slots = [&](const mt::AnyMeb<Token>& m, const std::string& prefix) {
      for (std::size_t t = 0; t < 2; ++t) {
        std::string cell;
        if (m.full() != nullptr) {
          const auto occ = m.full()->occupancy(t);
          if (occ >= 1) cell = label(m.full()->head(t));
          if (occ == 2) cell.append(",").append(label(m.full()->aux(t)));
        } else {
          if (m.reduced()->occupancy(t) >= 1) cell = label(m.reduced()->main_slot(t));
        }
        if (!cell.empty()) tl.put(prefix + "[" + (t == 0 ? "A" : "B") + "]", c, cell);
      }
      if (m.reduced() != nullptr && m.reduced()->shared_full()) {
        tl.put(prefix + "[sh]", c, label(m.reduced()->shared_slot(0)));
      }
    };
    slots(meb0, "MEB0");
    slots(meb1, "MEB1");
  });

  s.reset();
  // Saturate the stall, then measure thread A's rate deep inside it.
  s.run(14);
  a_before = sink.count(0);
  s.run(10);
  a_after = sink.count(0);
  b_at_release = sink.count(1);
  s.run(14);  // past the release: B drains

  Result r;
  r.a_rate_during_stall = static_cast<double>(a_after - a_before) / 10.0;
  r.b_after_release = sink.count(1) - b_at_release;

  if (print) {
    std::printf("\n--- Fig. 5%s: 2-stage pipeline of %s MEBs ---\n",
                kind == mt::MebKind::kFull ? "(a)" : "(b)", mt::to_string(kind));
    std::printf("thread B stalled at the sink during cycles [%lu, %lu)\n\n",
                static_cast<unsigned long>(stall_start),
                static_cast<unsigned long>(stall_end));
    std::printf("%s", tl.render(0, 37).c_str());
    std::printf("\nthread A rate while B saturated: %.2f tokens/cycle\n",
                r.a_rate_during_stall);
    std::printf("thread B tokens drained after release: %llu\n",
                static_cast<unsigned long long>(r.b_after_release));
  }
  return r;
}

}  // namespace

int main() {
  std::printf("FIG5 reproduction: elastic flow on MEB pipelines (2 threads)\n");
  const Result full = run(mt::MebKind::kFull, true);
  const Result reduced = run(mt::MebKind::kReduced, true);

  std::printf("\nsummary: A-rate during all-but-one-blocked saturation\n");
  std::printf("  full MEB    : %.2f (paper: full throughput, ~1.0)\n",
              full.a_rate_during_stall);
  std::printf("  reduced MEB : %.2f (paper: 50%% throughput, ~0.5)\n",
              reduced.a_rate_during_stall);
  const bool shape = full.a_rate_during_stall > 0.9 &&
                     reduced.a_rate_during_stall > 0.4 &&
                     reduced.a_rate_during_stall < 0.6 && full.b_after_release > 0 &&
                     reduced.b_after_release > 0;
  std::printf("shape check: %s\n", shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}
