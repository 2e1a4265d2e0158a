// Simulation-kernel performance: cycles/second of the delta-cycle
// simulator on representative elastic structures, measured for BOTH settle
// kernels (naive sweep vs. event-driven process worklist) side by side.
// Not a paper figure; used to size experiment budgets and catch kernel
// regressions.
//
// Emits BENCH_sim_speed.json (cycles/sec per kernel, per circuit, plus the
// event/naive speedup) so the perf trajectory is machine-readable, and
// prints the same table to stdout. Two settle-work metrics are recorded:
//   evals        component-equivalent settle work (Simulator::settle_work):
//                a full eval counts 1, a process eval of a split component
//                counts 1/process_count. This is the metric comparable
//                across kernel granularities and across PR recordings —
//                the raw unit count inflates mechanically when one
//                component becomes two schedulable processes.
//   sched_evals  raw dispatched units (Simulator::eval_count).
// The token counts delivered by the two kernels are cross-checked as a
// cheap equivalence smoke test; the md5 rows additionally cross-check the
// digests themselves (digest_check), keeping tokens a real token count.
//
// The commit phase is measured alongside settling:
//   ticks         tick() dispatches per cycle (Simulator::tick_count) —
//                 the machine-independent commit-work metric (elision
//                 lowers it; a component that forgets tick_quiescent
//                 raises it),
//   commit_share  tick() dispatch time / (eval + tick) dispatch time,
//                 from a stride-1 obs::PhaseProfiler attached for a
//                 separate stretch after the timed best-of-3 reps (its
//                 per-dispatch clock reads would distort them). Kernel
//                 bookkeeping between dispatches is in neither phase.
//
// `bench_sim_speed --gate` runs only the CI regression gates on fig5_full
// S=4 under backpressure: the event kernel must stay below a committed
// settle-work budget per cycle (a future component that forgets
// is_sequential()/process splitting, or a kernel change that
// reintroduces SCC re-evaluation, fails loudly) AND below a committed
// tick budget per cycle (a component that stops elising, or commit-side
// work creep, fails the same way).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "md5/md5_circuit.hpp"
#include "netlist/builder.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace mte;

// CI gate budget: settle work (component-equivalent evals) per cycle for
// fig5_full S=4, sink_rate 0.75, event kernel. The PR 2 component-granular
// kernel measured 13.8 here; the process-granular kernel measures ~10.0.
// 12.4 is the -10%-vs-PR2 line: regressions that reintroduce per-stage
// re-evaluation blow straight past it.
constexpr double kGateMaxWorkPerCycle = 12.4;

// Commit-phase gate budget: tick() dispatches per cycle on the same row.
// The circuit has 6 sequential components (source, 4 MEBs, sink; the FUs
// are pure wire forwards), and under backpressure nearly everything is
// busy, so the row measures ~6.0 ticks/cycle — elision can only lower
// it. 6.5 flags commit-side regressions: new always-ticking components
// on the hot path, or an FU/operator that regains a tick.
constexpr double kGateMaxTicksPerCycle = 6.5;

struct Measurement {
  std::string circuit;
  std::size_t threads = 1;
  std::string kernel;
  std::uint64_t cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  double evals = 0.0;             // settle work, component-equivalent
  std::uint64_t sched_evals = 0;  // raw dispatched units
  double ticks = 0.0;             // tick() dispatches per cycle (commit work)
  double elided = 0.0;            // ticks skipped by elision, per cycle
  bool demoted = false;           // event kernel fell back to naive order
  double commit_share = 0.0;      // tick / (eval + tick) dispatch time
  std::uint64_t tokens = 0;
  std::uint64_t digest_check = 0; // md5 rows: order-sensitive digest mix
};

struct Workload {
  std::string name;
  std::size_t threads = 1;          // 1 => single-thread elaboration
  mt::MebKind kind = mt::MebKind::kFull;
  std::uint64_t cycles = 100000;
  // Per-thread sink readiness. Fig. 5's scenario is a pipeline under
  // backpressure (a consumer that stalls threads); < 1.0 keeps the
  // handshake wires toggling, which is the representative regime. 1.0 is
  // the uncontended steady state where every handshake wire is constant —
  // the adversarial case for an event-driven kernel.
  double sink_rate = 1.0;
};

/// commit_share of `s` over `stretch` (a callable that runs it): the
/// commit fraction of a stride-1 PhaseProfiler's dispatch time.
template <typename Stretch>
double profiled_commit_share(sim::Simulator& s, Stretch stretch) {
  obs::PhaseProfiler profiler;
  s.set_profiler(&profiler);
  stretch();
  s.set_profiler(nullptr);
  const obs::ProfileReport report = profiler.report(s.components());
  const double total = report.total_settle_seconds() + report.total_commit_seconds();
  return total > 0.0 ? report.total_commit_seconds() / total : 0.0;
}

/// The fig5-shaped MEB pipeline: four stages of buffer + function unit
/// between a source and a sink, multithreaded to S threads of the chosen
/// MEB flavour. The function units model the datapath operators elastic
/// pipelines buffer (paper Fig. 5 shows the buffers; real stages compute),
/// and their pass-through handshake is what gives the pipeline its
/// multi-step combinational ready/valid chains. With S == 1 the same
/// netlist elaborates to the single-thread elastic primitives.
void describe_fig5(netlist::CircuitBuilder& b) {
  auto stage = b.source("src") >> b.buffer("m0") >> b.function("fu0", "inc");
  for (int i = 1; i < 4; ++i) {
    stage = stage >> b.buffer("m" + std::to_string(i)) >>
            b.function("fu" + std::to_string(i), "inc");
  }
  stage >> b.sink("sink");
}

/// The original buffer-only chain (no operators between stages), kept as
/// the adversarial case for the event-driven kernel: every component is
/// sequential and the combinational chains are one step deep, so there is
/// little for levelization to exploit.
void describe_buffer_chain(netlist::CircuitBuilder& b) {
  auto [first, last] = b.buffer_chain("m", 4);
  b.source("src") >> first;
  last >> b.sink("sink");
}

/// A single-thread diamond: fork -> two buffered function arms -> join.
/// Exercises the purely combinational components (fork arms, join) that
/// the event-driven kernel does not have to tick.
void describe_diamond(netlist::CircuitBuilder& b) {
  b.source("src") >> b.fork("f", 2);
  b.node("f").out(0) >> b.buffer("ba") >> b.function("fa", "inc") >> b.join("j", 2).in(0);
  b.node("f").out(1) >> b.buffer("bb") >> b.function("fb", "double") >> b.node("j").in(1);
  b.node("j") >> b.buffer("bo") >> b.sink("sink");
}

/// The full MD5 engine (paper Sec. V-A): repeated complete digests. Its
/// token loop (merge <- router) is genuine feedback, so this row also
/// documents how the event kernel behaves on a cyclic case study; the
/// digest_check field carries the digests themselves (cross-checked
/// between kernels), while tokens counts the digests computed per rep.
Measurement measure_md5(const Workload& w, sim::KernelKind kernel) {
  Measurement m;
  m.circuit = w.name;
  m.threads = w.threads;
  m.kernel = sim::to_string(kernel);

  md5::Md5Circuit c(w.threads, w.kind, kernel);
  for (std::size_t t = 0; t < w.threads; ++t) {
    c.set_message(t, "benchmark payload " + std::to_string(t));
  }
  (void)c.run();  // warm up: discover sensitivities / levelize
  constexpr int kReps = 3;
  constexpr int kDigestsPerRep = 64;
  double best = 0.0;
  std::uint64_t cycles_per_rep = 0;
  const std::uint64_t evals_before = c.simulator().eval_count();
  const double work_before = c.simulator().settle_work();
  const std::uint64_t ticks_before = c.simulator().tick_count();
  const std::uint64_t elided_before = c.simulator().elided_tick_count();
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t cycles = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int d = 0; d < kDigestsPerRep; ++d) cycles += c.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || dt < best) {
      best = dt;
      cycles_per_rep = cycles;
    }
  }
  m.cycles = cycles_per_rep;
  m.seconds = best;
  m.cycles_per_sec = static_cast<double>(cycles_per_rep) / best;
  m.sched_evals = (c.simulator().eval_count() - evals_before) / kReps;
  m.evals = (c.simulator().settle_work() - work_before) / kReps;
  m.ticks = static_cast<double>(c.simulator().tick_count() - ticks_before) /
            static_cast<double>(kReps) / static_cast<double>(cycles_per_rep);
  m.elided =
      static_cast<double>(c.simulator().elided_tick_count() - elided_before) /
      static_cast<double>(kReps) / static_cast<double>(cycles_per_rep);
  m.demoted = c.simulator().demoted_to_naive();
  m.commit_share = profiled_commit_share(c.simulator(), [&c] {
    for (int d = 0; d < 8; ++d) (void)c.run();
  });
  m.tokens = static_cast<std::uint64_t>(kDigestsPerRep) * w.threads;
  for (std::size_t t = 0; t < w.threads; ++t) {
    const md5::State& s = c.digest(t);
    m.digest_check ^= (static_cast<std::uint64_t>(s.a) << 32) ^ s.b;
    m.digest_check ^= (static_cast<std::uint64_t>(s.c) << 32) ^ s.d;
    m.digest_check = (m.digest_check << 1) | (m.digest_check >> 63);  // order-sensitive mix
  }
  return m;
}

Measurement measure(const Workload& w, sim::KernelKind kernel) {
  if (w.name.rfind("md5", 0) == 0) return measure_md5(w, kernel);
  netlist::CircuitBuilder b;
  if (w.name.rfind("fig5", 0) == 0) {
    describe_fig5(b);
  } else if (w.name.rfind("buffers", 0) == 0) {
    describe_buffer_chain(b);
  } else {
    describe_diamond(b);
  }
  netlist::ElaborationOptions options;
  options.channel_probes = false;
  options.kernel = kernel;
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();

  Measurement m;
  m.circuit = w.name;
  m.threads = w.threads;
  m.kernel = sim::to_string(kernel);
  m.cycles = w.cycles;

  auto run = [&](netlist::Elaboration& design) {
    constexpr int kReps = 3;  // best-of: damp scheduler noise
    sim::Simulator& s = design.simulator();
    s.reset();
    s.run(512);  // warm up: fill the pipeline, discover sensitivities
    const std::uint64_t evals_before = s.eval_count();
    const double work_before = s.settle_work();
    const std::uint64_t ticks_before = s.tick_count();
    const std::uint64_t elided_before = s.elided_tick_count();
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      s.run(w.cycles);
      const auto t1 = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || dt < best) best = dt;
    }
    m.seconds = best;
    m.cycles_per_sec = static_cast<double>(w.cycles) / best;
    m.sched_evals = (s.eval_count() - evals_before) / kReps;
    m.evals = (s.settle_work() - work_before) / kReps;
    m.ticks = static_cast<double>(s.tick_count() - ticks_before) /
              static_cast<double>(kReps) / static_cast<double>(w.cycles);
    m.elided = static_cast<double>(s.elided_tick_count() - elided_before) /
               static_cast<double>(kReps) / static_cast<double>(w.cycles);
    m.demoted = s.demoted_to_naive();
    m.commit_share = profiled_commit_share(s, [&s, &w] { s.run(w.cycles / 4); });
  };

  if (w.threads > 1) {
    auto design = b.then_multithreaded(w.threads, w.kind)
                      .elaborate(registry, factory, options);
    auto& src = design.mt_source("src");
    auto& sink = design.mt_sink("sink");
    for (std::size_t t = 0; t < w.threads; ++t) {
      src.set_generator(t, [](std::uint64_t i) { return i; });
      if (w.sink_rate < 1.0) sink.set_rate(t, w.sink_rate, 42);
    }
    run(design);
    m.tokens = sink.total_count();
  } else {
    auto design = b.elaborate(registry, factory, options);
    design.source("src").set_generator([](std::uint64_t i) { return i; });
    if (w.sink_rate < 1.0) design.sink("sink").set_rate(w.sink_rate, 42);
    run(design);
    m.tokens = design.sink("sink").count();
  }
  return m;
}

void append_json(std::string& out, const Measurement& m) {
  char buf[896];
  std::snprintf(buf, sizeof(buf),
                "    {\"circuit\": \"%s\", \"threads\": %zu, \"kernel\": \"%s\", "
                "\"cycles\": %llu, \"seconds\": %.6f, \"cycles_per_sec\": %.1f, "
                "\"evals\": %.1f, \"sched_evals\": %llu, "
                "\"ticks_per_cycle\": %.2f, \"elided_ticks_per_cycle\": %.2f, "
                "\"demoted_to_naive\": %s, \"commit_share\": %.3f, "
                "\"tokens\": %llu, \"digest_check\": %llu}",
                m.circuit.c_str(), m.threads, m.kernel.c_str(),
                static_cast<unsigned long long>(m.cycles), m.seconds,
                m.cycles_per_sec, m.evals,
                static_cast<unsigned long long>(m.sched_evals),
                m.ticks, m.elided, m.demoted ? "true" : "false", m.commit_share,
                static_cast<unsigned long long>(m.tokens),
                static_cast<unsigned long long>(m.digest_check));
  out += buf;
}

/// CI gate: event-kernel settle work AND commit work per cycle on the
/// fig5_full S=4 backpressure row must stay under their committed
/// budgets — the gate covers both phases of the cycle, not just settle
/// evals.
int run_gate() {
  const Workload w{"fig5_full", 4, mt::MebKind::kFull, 20000, 0.75};
  const Measurement m = measure(w, sim::KernelKind::kEventDriven);
  const double work_per_cycle = m.evals / static_cast<double>(w.cycles);
  const bool settle_ok = work_per_cycle < kGateMaxWorkPerCycle;
  const bool commit_ok = m.ticks < kGateMaxTicksPerCycle;
  std::printf("sim_speed gate: fig5_full S=4 event kernel: %.2f "
              "component-equivalent evals/cycle (budget %.2f) -> %s\n",
              work_per_cycle, kGateMaxWorkPerCycle, settle_ok ? "OK" : "FAIL");
  std::printf("sim_speed gate: fig5_full S=4 event kernel: %.2f "
              "ticks/cycle (budget %.2f), commit dispatch share %.1f%% -> %s\n",
              m.ticks, kGateMaxTicksPerCycle, 100.0 * m.commit_share,
              commit_ok ? "OK" : "FAIL");
  if (!settle_ok) {
    std::fprintf(stderr,
                 "FAIL: event-kernel settle work regressed past the budget — "
                 "check is_sequential()/process declarations of new components "
                 "and the kernel's seeding/levelization\n");
  }
  if (!commit_ok) {
    std::fprintf(stderr,
                 "FAIL: commit-phase work regressed past the tick budget — "
                 "check tick_quiescent()/tick_idle_hint declarations and "
                 "whether a hot-path component stopped elising\n");
  }
  return settle_ok && commit_ok ? 0 : 1;
}

/// --profile: a dedicated profiled pass over the gate workload (fig5_full
/// S=4 under backpressure, event kernel). Attaches a stride-1
/// PhaseProfiler and prints the per-type settle/commit ranking — the
/// table that sizes per-type batching candidates for a compiled kernel —
/// then reports the observability wall-clock overhead by timing the same
/// stretch with and without the profiler attached. The metrics registry
/// itself is pull-based and adds no per-cycle work (the obs test suite
/// pins settle_work/sched_evals equal with the registry on and off).
void run_profile_pass() {
  const Workload w{"fig5_full", 4, mt::MebKind::kFull, 20000, 0.75};
  netlist::CircuitBuilder b;
  describe_fig5(b);
  netlist::ElaborationOptions options;
  options.channel_probes = false;
  options.kernel = sim::KernelKind::kEventDriven;
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();
  auto design = b.then_multithreaded(w.threads, w.kind)
                    .elaborate(registry, factory, options);
  auto& src = design.mt_source("src");
  auto& sink = design.mt_sink("sink");
  for (std::size_t t = 0; t < w.threads; ++t) {
    src.set_generator(t, [](std::uint64_t i) { return i; });
    sink.set_rate(t, w.sink_rate, 42);
  }
  sim::Simulator& s = design.simulator();
  s.reset();
  s.run(512);  // warm up: discover sensitivities / levelize

  const auto timed_run = [&] {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      s.run(w.cycles);
      const auto t1 = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || dt < best) best = dt;
    }
    return best;
  };
  const double base = timed_run();
  obs::PhaseProfiler prof;  // stride 1: every dispatch timed (worst case)
  s.set_profiler(&prof);
  const double profiled = timed_run();
  s.set_profiler(nullptr);

  std::printf("\nsim_speed --profile: fig5_full S=4 event kernel, %llu cycles\n",
              static_cast<unsigned long long>(w.cycles));
  std::fputs(prof.report(s.components()).to_table().c_str(), stdout);
  std::printf(
      "obs overhead: stride-1 profiler %+.1f%% wall (%.3fs profiled vs %.3fs "
      "bare); metrics registry is pull-based (no per-cycle cost until "
      "snapshot)\n",
      base > 0.0 ? 100.0 * (profiled - base) / base : 0.0, profiled, base);
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else {
      std::fprintf(stderr, "usage: bench_sim_speed [--gate] [--profile]\n");
      return 2;
    }
  }
  if (gate) {
    const int rc = run_gate();
    if (profile) run_profile_pass();
    return rc;
  }

  std::vector<Workload> workloads = {
      {"diamond_st", 1, mt::MebKind::kFull, 200000, 0.75},
      {"buffers_full", 4, mt::MebKind::kFull, 100000, 0.75},
      {"fig5_uncontended", 4, mt::MebKind::kFull, 100000, 1.0},
      {"fig5_full", 1, mt::MebKind::kFull, 200000, 0.75},
      {"fig5_full", 4, mt::MebKind::kFull, 100000, 0.75},
      {"fig5_full", 8, mt::MebKind::kFull, 50000, 0.75},
      {"fig5_reduced", 4, mt::MebKind::kReduced, 100000, 0.75},
      {"fig5_reduced", 8, mt::MebKind::kReduced, 50000, 0.75},
      {"md5_block", 1, mt::MebKind::kReduced, 0, 1.0},
      {"md5_block", 8, mt::MebKind::kReduced, 0, 1.0},
  };

  std::printf("sim_speed: settle-kernel comparison (cycles/sec)\n");
  std::printf("%-14s %3s | %12s %12s | %7s | %5s %6s | token check\n", "circuit",
              "S", "naive", "event", "speedup", "ticks", "commit");

  std::string results_json;
  std::string speedups_json;
  bool tokens_match = true;
  // Wall-clock event/naive ratios compress as shared circuit code gets
  // faster (wire forwarding removed whole naive sweeps in this PR) and
  // swing +-25% run-to-run on a loaded host, so the recorded pass flag is
  // the machine-independent settle-work budget on the headline fig5 rows;
  // the speedup array stays informational.
  bool fig5_work_budget_met = true;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const Measurement naive = measure(w, sim::KernelKind::kNaive);
    const Measurement event = measure(w, sim::KernelKind::kEventDriven);
    const double speedup = event.cycles_per_sec / naive.cycles_per_sec;
    const bool match = naive.tokens == event.tokens &&
                       naive.digest_check == event.digest_check;
    tokens_match = tokens_match && match;
    if ((w.name == "fig5_full" || w.name == "fig5_reduced") && w.threads >= 4 &&
        event.evals / static_cast<double>(w.cycles) >= kGateMaxWorkPerCycle) {
      fig5_work_budget_met = false;
    }
    std::printf("%-14s %3zu | %12.0f %12.0f | %6.2fx | %5.1f %5.1f%% | %s\n",
                w.name.c_str(), w.threads, naive.cycles_per_sec,
                event.cycles_per_sec, speedup, event.ticks,
                100.0 * event.commit_share, match ? "ok" : "MISMATCH");

    if (i > 0) results_json += ",\n";
    append_json(results_json, naive);
    results_json += ",\n";
    append_json(results_json, event);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"circuit\": \"%s\", \"threads\": %zu, "
                  "\"sink_rate\": %.2f, \"speedup\": %.3f}",
                  i > 0 ? ",\n" : "", w.name.c_str(), w.threads, w.sink_rate,
                  speedup);
    speedups_json += buf;
  }

  const std::string path = "BENCH_sim_speed.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"sim_speed\",\n  \"unit\": \"cycles/sec\",\n"
                 "  \"evals_unit\": \"component-equivalent settle work "
                 "(process evals weighted by 1/process_count)\",\n"
                 "  \"results\": [\n%s\n  ],\n  \"speedup_event_over_naive\": [\n%s\n  ],\n"
                 "  \"tokens_match\": %s,\n  \"fig5_work_budget_met\": %s\n}\n",
                 results_json.c_str(), speedups_json.c_str(),
                 tokens_match ? "true" : "false",
                 fig5_work_budget_met ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return 1;
  }

  if (!tokens_match) {
    std::fprintf(stderr, "FAIL: kernels delivered different token/digest counts\n");
    return 1;
  }
  std::printf("fig5 S>=4 settle-work budget (< %.1f/cycle): %s\n",
              kGateMaxWorkPerCycle, fig5_work_budget_met ? "met" : "NOT met");
  if (profile) run_profile_pass();
  return fig5_work_budget_met ? 0 : 1;
}
