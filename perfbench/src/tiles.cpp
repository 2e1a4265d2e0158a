// tiles_sim and tiles_guarded: one generated ~10^4-node S=4 netlist, run
// the way mte_prof runs a netlist (parse -> analyze -> analyze_perf ->
// Elaboration with default options -> sources driven -> run -> metrics
// snapshot -> stats report). The guarded variant attaches a protocol
// monitor, arms the watchdog and round-trips the simulator through a
// snapshot every segment, as mte_prof --watchdog, mte_dse --monitors and
// checkpoint warm-starts do.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "analysis/analyze.hpp"
#include "analysis/perf.hpp"
#include "generators.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/text_format.hpp"
#include "obs/profiler.hpp"
#include "profiling.hpp"
#include "sim/protocol_monitor.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mte::sim::Cycle;
using Word = mte::netlist::Word;

constexpr TilesShape kShape{24, 200};
constexpr Cycle kSegment = 200;        ///< cycles per run() call (and per round trip)
constexpr Cycle kWarmup = 1 + 2 * kSegment;  ///< steady window starts here
constexpr Cycle kCycles = 1 + 4 * kSegment;  ///< cycles per job
constexpr Cycle kWatchdog = 2000;      ///< no-progress deadline (guarded)
constexpr Cycle kWindow = 100;         ///< profiler/monitor/growth windows
constexpr int kRounds = 3;             ///< windows per measurement

/// The guarded workload runs the same generator under its own seed.
std::uint64_t netlist_seed(std::uint64_t seed, bool guarded) {
  return guarded ? seed ^ 0x6775'6172'6465'6421ULL : seed;  // "guarded!"
}

const mte::netlist::FunctionRegistry& registry() {
  static const auto r = mte::netlist::FunctionRegistry::with_defaults();
  return r;
}

/// Endless per-thread token streams on every source and seeded rate gates
/// on every endpoint, as mte_prof drives a netlist.
void drive_sources(const mte::netlist::Netlist& nl, mte::netlist::Elaboration& e,
                   std::uint64_t seed) {
  for (const auto& node : nl.nodes()) {
    if (node.type == mte::netlist::NodeType::kSource) {
      auto& src = e.mt_source(node.name);
      for (std::size_t t = 0; t < src.threads(); ++t) {
        src.set_generator(t, [t](std::uint64_t i) { return (static_cast<Word>(t) << 56) | i; });
        src.set_rate(t, node.rate, seed + 17 * (node.id + 1));
      }
    } else if (node.type == mte::netlist::NodeType::kSink) {
      auto& snk = e.mt_sink(node.name);
      for (std::size_t t = 0; t < snk.threads(); ++t) {
        snk.set_rate(t, node.rate, seed + 23 * (node.id + 1));
      }
    }
  }
}

/// One set-up design. The monitor is declared first so it outlives the
/// simulator it is attached to.
struct Design {
  mte::sim::ProtocolMonitor monitor;
  mte::netlist::Netlist nl;
  mte::analysis::PerfReport perf;
  std::unique_ptr<mte::netlist::Elaboration> elab;

  mte::sim::Simulator& sim() { return elab->simulator(); }
};

struct Counters {
  double settle_work = 0.0;
  double sched_evals = 0.0;
  double ticks = 0.0;
  double elided = 0.0;

  static Counters read(const mte::sim::Simulator& s) {
    return {s.settle_work(), static_cast<double>(s.eval_count()),
            static_cast<double>(s.tick_count()), static_cast<double>(s.elided_tick_count())};
  }
  Counters operator-(const Counters& o) const {
    return {settle_work - o.settle_work, sched_evals - o.sched_evals, ticks - o.ticks,
            elided - o.elided};
  }
};

/// parse -> analyze -> analyze_perf -> elaborate -> drive [-> monitor,
/// watchdog] -> first step. `perf_rss_mb`, when given, receives the peak
/// memory the perf pass added.
std::unique_ptr<Design> set_up(const std::string& text, std::uint64_t seed, bool guarded,
                               const std::string& postmortem_dir, Failures& fails,
                               double* perf_rss_mb = nullptr) {
  auto d = std::make_unique<Design>();
  {
    Span s("netlist.parse", "netlist");
    d->nl = mte::netlist::parse_netlist(text);
  }
  {
    Span s("analysis.analyze", "analysis");
    const auto report = mte::analysis::analyze(d->nl);
    if (report.error_count() != 0 || report.warning_count() != 0) {
      fails.push_back("generated netlist is not lint-clean:\n" + report.render_text());
    }
  }
  {
    const double rss_before = peak_rss_mb();
    Span s("analysis.perf", "analysis");
    d->perf = mte::analysis::analyze_perf(d->nl);
    if (perf_rss_mb != nullptr) *perf_rss_mb = peak_rss_mb() - rss_before;
  }
  if (!d->perf.converged || !d->perf.karp_agrees) {
    fails.push_back("analyze_perf: Howard did not converge or Karp disagrees");
  }
  {
    Span s("netlist.elaborate", "netlist");
    d->elab = std::make_unique<mte::netlist::Elaboration>(
        d->nl, registry(), mte::netlist::ComponentFactory::defaults());
  }
  {
    Span s("netlist.drive", "netlist");
    drive_sources(d->nl, *d->elab, seed);
  }
  if (guarded) {
    Span s("obs.attach_monitor", "obs");
    d->elab->attach_monitor(d->monitor);
    d->sim().set_watchdog(kWatchdog, postmortem_dir);
  }
  {
    Span s("sim.first_step", "sim");
    d->sim().step();
  }
  return d;
}

struct JobStats {
  double setup_s = 0.0;
  double wall_s = 0.0;
  Cycle steady_cycles = 0;
  std::vector<double> segment_rates;  ///< cycles/s of each steady segment
  Counters steady;  ///< kernel work over the steady window
  bool demoted = false;
  std::uint64_t digest = 0;
  std::size_t nodes = 0;
  std::size_t channels = 0;
  std::size_t perf_iterations = 0;
  std::size_t snapshot_bytes = 0;  ///< size of the last snapshot taken
};

/// Runs the design from cycle 1 to kCycles in kSegment steps; a guarded
/// run checks the monitor and round-trips a snapshot after each segment.
void run_cycles(Design& d, bool guarded, JobStats& st, Failures& fails) {
  auto& sim = d.sim();
  Cycle done = 1;
  Counters at_steady;
  while (done < kCycles) {
    if (done == kWarmup) at_steady = Counters::read(sim);
    const Cycle n = std::min(kSegment, kCycles - done);
    const auto t = Clock::now();
    {
      Span s("sim.run", "sim");
      sim.run(n);
    }
    if (done >= kWarmup) {
      const double dt = seconds_since(t);
      st.steady_cycles += n;
      st.segment_rates.push_back(static_cast<double>(n) / dt);
    }
    done += n;
    if (!guarded) continue;
    // restore() clears the monitor, so read its findings first.
    if (!d.monitor.violations().empty()) {
      fails.push_back("protocol violation: " + d.monitor.violations().front().format());
    }
    if (done == kCycles) break;
    std::stringstream buf;
    {
      Span s("sim.save", "sim");
      sim.save(buf);
    }
    st.snapshot_bytes = static_cast<std::size_t>(buf.tellp());
    {
      Span s("sim.restore", "sim");
      sim.restore(buf);
    }
    if (sim.now() != done) fails.push_back("restore landed on the wrong cycle");
  }
  st.steady = Counters::read(sim) - at_steady;
  st.demoted = sim.demoted_to_naive();
}

/// Metrics snapshot, stats report, digest and the bound check.
void finish(Design& d, JobStats& st, Failures& fails) {
  auto& sim = d.sim();
  std::uint64_t h = 0;
  {
    Span s("obs.metrics_snapshot", "obs");
    h = fnv1a(sim.metrics().snapshot(mte::obs::kSemanticOnly).to_csv());
  }
  {
    Span s("obs.stats_report", "obs");
    if (d.elab->stats_report().empty()) fails.push_back("empty stats report");
  }
  for (const auto& node : d.nl.nodes()) {
    if (node.type != mte::netlist::NodeType::kSink) continue;
    const auto& snk = d.elab->mt_sink(node.name);
    h = fnv1a(node.name, h);
    for (std::size_t t = 0; t < snk.threads(); ++t) {
      h = fnv1a_u64(snk.count(t), h);
      for (const Word tok : snk.received(t)) h = fnv1a_u64(tok, h);
    }
  }
  for (const auto& sink : d.perf.sinks) {
    if (!sink.reachable) continue;
    const double measured =
        static_cast<double>(d.elab->mt_sink(sink.sink).total_count()) / kCycles;
    const double bound = mte::analysis::windowed_bound(sink, kCycles);
    if (measured > bound + 1e-9) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "sink %s: measured %.6f above static bound %.6f",
                    sink.sink.c_str(), measured, bound);
      fails.push_back(buf);
    }
  }
  st.digest = h;
  st.nodes = d.nl.nodes().size();
  st.channels = d.nl.edges().size();
  st.perf_iterations = d.perf.iterations;
}

/// One closed-loop job: set-up, kCycles cycles, report; teardown included.
JobStats tiles_job(const std::string& text, std::uint64_t seed, bool guarded,
                   const std::string& postmortem_dir, Failures& fails,
                   double* perf_rss_mb = nullptr) {
  JobStats st;
  const auto t0 = Clock::now();
  try {
    Span s("tiles.job", "bench");
    auto d = set_up(text, seed, guarded, postmortem_dir, fails, perf_rss_mb);
    st.setup_s = seconds_since(t0);
    run_cycles(*d, guarded, st, fails);
    finish(*d, st, fails);
  } catch (const std::exception& ex) {
    fails.push_back(std::string("job threw: ") + ex.what());
  }
  st.wall_s = seconds_since(t0);
  return st;
}

/// Setup phases and steady cycle time of one design size (medians).
struct LayerTimes {
  double parse = 0, analyze = 0, perf = 0, elaborate = 0, cycle = 0;
};

LayerTimes time_layers(const std::string& text, std::uint64_t seed, Failures& fails) {
  std::vector<double> parse, analyze, perf, elaborate, cycle;
  for (int rep = 0; rep < kRounds; ++rep) {
    Tracer tracer;  // a private tracer: its totals are this rep's phases
    std::unique_ptr<Design> d;
    {
      TracerScope on(tracer);
      d = set_up(text, seed, false, {}, fails);
    }
    parse.push_back(tracer.total_s("netlist.parse"));
    analyze.push_back(tracer.total_s("analysis.analyze"));
    perf.push_back(tracer.total_s("analysis.perf"));
    elaborate.push_back(tracer.total_s("netlist.elaborate"));
    if (rep == 0) {
      d->sim().run(kWarmup - 1);
      for (int w = 0; w < kRounds; ++w) {
        const auto t = Clock::now();
        d->sim().run(kWindow);
        cycle.push_back(seconds_since(t) / kWindow);
      }
    }
  }
  return {median(parse), median(analyze), median(perf), median(elaborate), median(cycle)};
}

}  // namespace

std::string tiles_job_digest(std::uint64_t seed, bool guarded) {
  const std::uint64_t nseed = netlist_seed(seed, guarded);
  Failures fails;
  const JobStats st = tiles_job(tiles_enl(nseed, kShape), nseed, false, {}, fails);
  return fails.empty() ? hex64(st.digest) : std::string{};
}

RunResult run_tiles(const RunOptions& opt, bool guarded) {
  RunResult r;
  const std::uint64_t seed = netlist_seed(opt.seed, guarded);
  const std::string text = tiles_enl(seed, kShape);

  // The unguarded reference job, which also warms the process up: when
  // no digest is recorded for this seed, every job must reproduce its
  // digest. Being the process's first job, it also gives the perf pass's
  // own peak memory.
  Failures ref_fails;
  double perf_rss = 0.0;
  const JobStats ref = tiles_job(text, seed, false, opt.artifact_dir, ref_fails, &perf_rss);
  const std::string expected = opt.expect_digest.empty() ? hex64(ref.digest) : opt.expect_digest;
  check_digest(ref.digest, expected, ref_fails);
  r.record(ref_fails);
  r.digest = hex64(ref.digest);

  // Every job sets up once; one more set-up on its own after each job
  // doubles the setup_s samples and spreads them over the whole run.
  std::vector<double> setup;
  const auto extra_setup = [&] {
    Failures fails;
    const auto t0 = Clock::now();
    const auto d = set_up(text, seed, guarded, opt.artifact_dir, fails);
    setup.push_back(seconds_since(t0));
    r.record(fails);
  };

  Tracer tracer;
  std::vector<double> wall, rate, plain_wall, traced_wall;
  std::vector<JobStats> traced;
  closed_loop(opt.seconds, opt.trace, tracer, [&](bool traced_job) {
    Failures fails;
    const JobStats st = tiles_job(text, seed, guarded, opt.artifact_dir, fails);
    (traced_job ? traced_wall : plain_wall).push_back(st.wall_s);
    if (traced_job) traced.push_back(st);
    check_digest(st.digest, expected, fails);
    r.record(fails);
    setup.push_back(st.setup_s);
    wall.push_back(st.wall_s);
    rate.insert(rate.end(), st.segment_rates.begin(), st.segment_rates.end());
    if (!opt.trace) extra_setup();
  });
  if (!opt.trace) {
    r.set_end_to_end(setup, wall, rate);
    return r;
  }

  auto& m = r.metrics;
  const double jobs = static_cast<double>(traced.size());
  const auto per_job = [&](const char* span) { return tracer.total_s(span) / jobs; };
  const auto per_call = [&](const char* span) {
    return tracer.count(span) ? tracer.total_s(span) / tracer.count(span) : 0.0;
  };
  const JobStats& first = traced.front();
  m["netlist.parse_s"] = per_job("netlist.parse");
  m["netlist.elaborate_s"] = per_job("netlist.elaborate");
  m["netlist.components"] = static_cast<double>(first.nodes);
  m["netlist.channels"] = static_cast<double>(first.channels);
  m["analysis.analyze_s"] = per_job("analysis.analyze");
  m["analysis.perf_s"] = per_job("analysis.perf");
  m["analysis.perf_iterations"] = static_cast<double>(first.perf_iterations);
  m["analysis.perf_rss_mb"] = perf_rss;
  m["sim.first_step_s"] = per_job("sim.first_step");
  const double steady_cycles = static_cast<double>(first.steady_cycles);
  m["sim.settle_work_per_cycle"] = first.steady.settle_work / steady_cycles;
  m["sim.sched_evals_per_cycle"] = first.steady.sched_evals / steady_cycles;
  m["sim.ticks_per_cycle"] = first.steady.ticks / steady_cycles;
  m["sim.elided_ticks_per_cycle"] = first.steady.elided / steady_cycles;
  m["sim.demoted_to_naive"] = first.demoted ? 1.0 : 0.0;
  if (guarded) {
    m["sim.save_s"] = per_call("sim.save");
    m["sim.restore_s"] = per_call("sim.restore");
    m["sim.snapshot_bytes"] = static_cast<double>(first.snapshot_bytes);
  }
  m["obs.metrics_snapshot_s"] = per_job("obs.metrics_snapshot");
  m["obs.stats_report_s"] = per_job("obs.stats_report");
  m["obs.tracing_overhead_pct"] = overhead_pct(median(plain_wall), median(traced_wall));
  for (const auto& [layer, self_s] : tracer.self_by_layer()) {
    if (layer != "bench") m[layer + ".self_s"] = self_s / jobs;
  }
  if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
    Failures f{"cannot write " + opt.trace_out};
    r.record(f);
  }

  // Observation costs on steady-state designs: the profiler at stride 1
  // (mte_prof's default) and 64 against no profiler on one design, and an
  // attached monitor against none on a twin design. Windows alternate so
  // drift in machine speed hits every side alike.
  Failures obs_fails;
  auto plain = set_up(text, seed, false, {}, obs_fails);
  auto watched = set_up(text, seed, true, opt.artifact_dir, obs_fails);
  plain->sim().run(kWarmup - 1);
  watched->sim().run(kWarmup - 1);
  std::vector<double> t_plain, t_s1, t_s64, t_watched;
  ProfileTotals profile;
  Counters profiled_work;
  const auto timed_window = [&](Design& d) {
    const auto t = Clock::now();
    d.sim().run(kWindow);
    return seconds_since(t);
  };
  for (int round = 0; round < kRounds; ++round) {
    t_plain.push_back(timed_window(*plain));
    {
      mte::obs::PhaseProfiler prof(1);
      plain->sim().set_profiler(&prof);
      const Counters before = Counters::read(plain->sim());
      t_s1.push_back(timed_window(*plain));
      const Counters work = Counters::read(plain->sim()) - before;
      profiled_work.settle_work += work.settle_work;
      profiled_work.ticks += work.ticks;
      plain->sim().set_profiler(nullptr);
      profile.add(prof.report(plain->sim().components()));
    }
    {
      mte::obs::PhaseProfiler prof(64);
      plain->sim().set_profiler(&prof);
      t_s64.push_back(timed_window(*plain));
      plain->sim().set_profiler(nullptr);
    }
    t_watched.push_back(timed_window(*watched));
  }
  if (!watched->monitor.violations().empty()) {
    obs_fails.push_back("protocol violation: " + watched->monitor.violations().front().format());
  }
  profile.emit(r, profiled_work.settle_work, profiled_work.ticks);
  m["obs.profiler_overhead_pct_s1"] = overhead_pct(median(t_plain), median(t_s1));
  m["obs.profiler_overhead_pct_s64"] = overhead_pct(median(t_plain), median(t_s64));
  m["obs.monitor_overhead_pct"] = overhead_pct(median(t_plain), median(t_watched));
  plain.reset();
  watched.reset();

  // Growth probes: the same layers at half the tiles.
  TilesShape half = kShape;
  half.tiles /= 2;
  const LayerTimes full_t = time_layers(text, seed, obs_fails);
  const LayerTimes half_t = time_layers(tiles_enl(seed, half), seed, obs_fails);
  m["netlist.parse_growth_2x"] = ratio(full_t.parse, half_t.parse);
  m["analysis.analyze_growth_2x"] = ratio(full_t.analyze, half_t.analyze);
  m["analysis.perf_growth_2x"] = ratio(full_t.perf, half_t.perf);
  m["netlist.elaborate_growth_2x"] = ratio(full_t.elaborate, half_t.elaborate);
  m["sim.cycle_growth_2x"] = ratio(full_t.cycle, half_t.cycle);
  r.record(obs_fails);
  return r;
}

}  // namespace perfbench
