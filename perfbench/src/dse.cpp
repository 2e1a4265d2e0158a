// dse_default: the mte_dse default campaign (fig1/fig5 x full/hybrid/
// reduced x S in {1,2,4,8} x K in {0,1} x round_robin/oblivious, 64
// points) run through CampaignRunner::run on the worker pool and
// rendered with Report::to_csv/to_json. Many ~10-component simulations:
// per-point set-up, the per-point static bound, small-circuit settle/
// commit and the pool do the work.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/perf.hpp"
#include "dse/campaign.hpp"
#include "dse/report.hpp"
#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"
#include "obs/profiler.hpp"
#include "profiling.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dse = mte::dse;
using mte::sim::Cycle;

constexpr Cycle kPointCycles = 100'000;  ///< per point: the campaign lasts ~1 s
constexpr Cycle kProfiledCycles = kPointCycles / 20;
constexpr std::size_t kMaxWorkers = 4;   ///< mte_dse's default: one per core
constexpr int kRounds = 2;

/// The default preset as sweep-spec text, so the spec parser runs too.
std::string spec_text(std::uint64_t seed) {
  return "workloads fig1 fig5\n"
         "variants full hybrid reduced\n"
         "threads 1 2 4 8\n"
         "shared_slots 0 1\n"
         "arbiters round_robin oblivious\n"
         "kernels event\n"
         "cycles " + std::to_string(kPointCycles) + "\n"
         "seed " + std::to_string(seed) + "\n";
}

std::size_t workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxWorkers);
}

mte::analysis::PerfOptions perf_options(const dse::SweepPoint& p) {
  mte::analysis::PerfOptions opt;
  opt.arbiter = p.arbiter;
  if (p.variant == dse::MebVariant::kHybrid) opt.meb_shared_slots = p.shared_slots;
  return opt;
}

/// A campaign's set-up work, serially: spec text -> parse -> enumerate,
/// then every point's static bound, session and first cycle.
double campaign_setup_s(std::uint64_t seed) {
  const auto t0 = Clock::now();
  const dse::SweepSpec spec = dse::SweepSpec::parse(spec_text(seed));
  const auto& set = dse::WorkloadSet::builtin();
  for (const auto& p : spec.enumerate(set)) {
    const dse::Workload& w = set.at(p.workload);
    const dse::StaticModel model = w.make_netlist(p);
    (void)mte::analysis::analyze_perf(model.net, perf_options(p));
    auto session = w.make_session(p, spec.cycles, dse::point_seed(spec.seed, p.index));
    session->simulator().step();
  }
  return seconds_since(t0);
}

/// Checks a campaign's records and returns the report CSV digest.
std::uint64_t check_records(const std::vector<dse::PointRecord>& records,
                            const std::string& csv, const std::string& json,
                            Failures& fails) {
  if (records.size() != 64) {
    fails.push_back("campaign has " + std::to_string(records.size()) + " points, not 64");
  }
  for (const auto& rec : records) {
    if (!rec.ok()) {
      fails.push_back(rec.point.label() + " failed: " + rec.error);
    } else if (rec.static_bound < 0 || rec.result.throughput > rec.static_bound + 1e-9) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s: measured %.6f above static bound %.6f",
                    rec.point.label().c_str(), rec.result.throughput, rec.static_bound);
      fails.push_back(buf);
    }
  }
  if (json.empty()) fails.push_back("empty JSON report");
  return fnv1a(csv);
}

struct CampaignJob {
  double wall_s = 0.0;
  double campaign_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<dse::PointRecord> records;
};

/// One closed-loop job: the campaign on the pool, then its reports.
CampaignJob campaign_job(const dse::SweepSpec& spec, Failures& fails) {
  CampaignJob job;
  const auto t0 = Clock::now();
  try {
    const dse::CampaignRunner runner;
    {
      Span s("dse.campaign", "dse");
      job.records = runner.run(spec, workers());
    }
    job.campaign_s = seconds_since(t0);
    std::string csv, json;
    {
      Span s("dse.report", "dse");
      const dse::Report report(spec, job.records);
      csv = report.to_csv();
      json = report.to_json();
    }
    job.digest = check_records(job.records, csv, json, fails);
  } catch (const std::exception& ex) {
    fails.push_back(std::string("campaign threw: ") + ex.what());
  }
  job.wall_s = seconds_since(t0);
  return job;
}

/// The built-in fig1/fig5 workloads with every hook wrapped in a span.
/// evaluate becomes make_session -> first step -> run -> finish, which
/// the Workload contract makes equal to the built-in evaluate. With a
/// profiler, each point's simulator is profiled and the reports summed.
dse::WorkloadSet instrumented_set(mte::obs::PhaseProfiler* profiler, ProfileTotals* totals) {
  dse::WorkloadSet set;
  for (const char* name : {"fig1", "fig5"}) {
    dse::Workload w = dse::WorkloadSet::builtin().at(name);
    const auto make_netlist = w.make_netlist;
    const auto make_session = w.make_session;
    w.make_netlist = [make_netlist](const dse::SweepPoint& p) {
      Span s("dse.make_netlist", "netlist");
      return make_netlist(p);
    };
    w.evaluate = [make_session, profiler, totals](const dse::SweepPoint& p, Cycle cycles,
                                                  std::uint64_t seed) {
      Span eval("dse.evaluate", "dse");
      std::unique_ptr<dse::WorkloadSession> session;
      {
        Span s("dse.point_setup", "dse");
        session = make_session(p, cycles, seed);
      }
      auto& sim = session->simulator();
      if (profiler != nullptr) sim.set_profiler(profiler);
      {
        Span s("sim.first_step", "sim");
        sim.step();
      }
      {
        Span s("sim.run", "sim");
        sim.run(cycles - 1);
      }
      if (profiler != nullptr) {
        sim.set_profiler(nullptr);
        totals->add(profiler->report(sim.components()));
        profiler->reset();
      }
      Span s("dse.point_finish", "dse");
      return session->finish(p, cycles);
    };
    set.add(std::move(w));
  }
  return set;
}

bool same_record(const dse::PointRecord& a, const dse::PointRecord& b) {
  return a.point.index == b.point.index && a.seed == b.seed && a.error == b.error &&
         a.static_bound == b.static_bound && a.result.throughput == b.result.throughput &&
         a.result.tokens == b.result.tokens && a.result.cycles == b.result.cycles &&
         a.result.mean_wait == b.result.mean_wait &&
         a.result.kernel.settle_work == b.result.kernel.settle_work &&
         a.result.kernel.ticks == b.result.kernel.ticks &&
         a.result.kernel.elided_ticks == b.result.kernel.elided_ticks;
}

/// Serial time of every point of `spec` through `set`'s evaluate (no
/// static bound), the profiled passes' building block.
double evaluate_all(const dse::WorkloadSet& set, const dse::SweepSpec& spec,
                    const std::vector<dse::SweepPoint>& points, double* settle_work,
                    double* ticks) {
  const auto t0 = Clock::now();
  for (const auto& p : points) {
    const auto result = set.at(p.workload).evaluate(p, spec.cycles,
                                                    dse::point_seed(spec.seed, p.index));
    if (settle_work != nullptr) *settle_work += result.kernel.settle_work;
    if (ticks != nullptr) *ticks += static_cast<double>(result.kernel.ticks);
  }
  return seconds_since(t0);
}

}  // namespace

std::string dse_job_digest(std::uint64_t seed) {
  Failures fails;
  const auto job = campaign_job(dse::SweepSpec::parse(spec_text(seed)), fails);
  return fails.empty() ? hex64(job.digest) : std::string{};
}

RunResult run_dse(const RunOptions& opt) {
  RunResult r;
  const dse::SweepSpec spec = dse::SweepSpec::parse(spec_text(opt.seed));

  // A warm-up campaign, checked but not timed. Without a recorded digest
  // it is the reference every later campaign must reproduce.
  Failures warm_fails;
  const CampaignJob warm = campaign_job(spec, warm_fails);
  const std::string expected = opt.expect_digest.empty() ? hex64(warm.digest) : opt.expect_digest;
  check_digest(warm.digest, expected, warm_fails);
  r.record(warm_fails);
  r.digest = hex64(warm.digest);
  const std::vector<dse::PointRecord>& first_records = warm.records;

  // One campaign set-up sample per job spreads the setup_s samples over
  // the whole run.
  Tracer tracer;
  std::vector<double> setup, wall, rate, plain_wall, traced_wall, campaign_s;
  closed_loop(opt.seconds, opt.trace, tracer, [&](bool traced_job) {
    Failures fails;
    if (traced_job) {
      Span s("dse.enumerate", "dse");
      (void)spec.enumerate();
    }
    const CampaignJob cj = campaign_job(spec, fails);
    (traced_job ? traced_wall : plain_wall).push_back(cj.wall_s);
    check_digest(cj.digest, expected, fails);
    r.record(fails);
    setup.push_back(campaign_setup_s(opt.seed));
    wall.push_back(cj.wall_s);
    campaign_s.push_back(cj.campaign_s);
    rate.push_back(ratio(static_cast<double>(cj.records.size()), cj.campaign_s));
  });
  if (!opt.trace) {
    r.set_end_to_end(setup, wall, rate);
    return r;
  }

  auto& m = r.metrics;
  m["dse.enumerate_s"] = tracer.total_s("dse.enumerate") / tracer.count("dse.enumerate");
  m["dse.report_s"] = tracer.total_s("dse.report") / tracer.count("dse.report");
  m["obs.tracing_overhead_pct"] = overhead_pct(median(plain_wall), median(traced_wall));

  // Serial replay of every point through run_point with the hooks
  // wrapped in spans; the replayed records must equal the campaign's.
  Failures replay_fails;
  const std::size_t replay_first = tracer.records().size();
  const auto points = spec.enumerate();
  std::vector<double> point_s;
  double setup_total = 0, bound_total = 0, sim_total = 0, finish_total = 0, first_total = 0;
  double components = 0, channels = 0;
  {
    TracerScope on(tracer);
    const dse::CampaignRunner replay(instrumented_set(nullptr, nullptr));
    for (const auto& p : points) {
      const double eval0 = tracer.total_s("dse.evaluate");
      const auto t0 = Clock::now();
      dse::PointRecord rec;
      {
        Span s("dse.point", "dse");
        rec = replay.run_point(p, spec);
      }
      const double point = seconds_since(t0);
      point_s.push_back(point);
      bound_total += point - (tracer.total_s("dse.evaluate") - eval0);
      if (p.index >= first_records.size() || !same_record(rec, first_records[p.index])) {
        replay_fails.push_back("replayed point " + p.label() + " differs from the campaign");
      }
      const auto model = dse::WorkloadSet::builtin().at(p.workload).make_netlist(p);
      components += static_cast<double>(model.net.nodes().size());
      channels += static_cast<double>(model.net.edges().size());
    }
    setup_total = tracer.total_s("dse.point_setup");
    first_total = tracer.total_s("sim.first_step");
    sim_total = tracer.total_s("sim.run") + first_total;
    finish_total = tracer.total_s("dse.point_finish");
  }
  const double n = static_cast<double>(points.size());
  m["dse.point_setup_s"] = setup_total / n;
  m["dse.point_static_bound_s"] = bound_total / n;
  m["dse.point_sim_s"] = sim_total / n;
  m["dse.point_finish_s"] = finish_total / n;
  m["dse.point_s_p50"] = median(point_s);
  m["dse.point_s_max"] = *std::max_element(point_s.begin(), point_s.end());
  double serial_total = 0;
  for (const double s : point_s) serial_total += s;
  m["dse.parallel_efficiency"] =
      serial_total / (static_cast<double>(workers()) * median(campaign_s));
  m["sim.first_step_s"] = first_total / n;
  m["netlist.components"] = components;
  m["netlist.channels"] = channels;
  for (const auto& [layer, self_s] : tracer.self_by_layer(replay_first)) {
    m[layer + ".self_s"] = self_s;
  }

  // Kernel work per simulated cycle over the whole campaign.
  double cycles = 0, settle_work = 0, sched = 0, ticks = 0, elided = 0, demoted = 0;
  for (const auto& rec : first_records) {
    cycles += static_cast<double>(rec.result.cycles);
    settle_work += rec.result.kernel.settle_work;
    sched += static_cast<double>(rec.result.kernel.sched_evals);
    ticks += static_cast<double>(rec.result.kernel.ticks);
    elided += static_cast<double>(rec.result.kernel.elided_ticks);
    demoted += rec.result.kernel.demoted_to_naive ? 1.0 : 0.0;
  }
  m["sim.settle_work_per_cycle"] = settle_work / cycles;
  m["sim.sched_evals_per_cycle"] = sched / cycles;
  m["sim.ticks_per_cycle"] = ticks / cycles;
  m["sim.elided_ticks_per_cycle"] = elided / cycles;
  m["sim.demoted_to_naive"] = demoted;

  // Profiler cost and per-type time: every point at a shorter budget,
  // unprofiled, at stride 1 and at stride 64, in alternating rounds.
  dse::SweepSpec short_spec = spec;
  short_spec.cycles = kProfiledCycles;
  const auto short_points = short_spec.enumerate();
  mte::obs::PhaseProfiler s1(1);
  mte::obs::PhaseProfiler s64(64);
  ProfileTotals profile;
  ProfileTotals discard;
  const auto set_s1 = instrumented_set(&s1, &profile);
  const auto set_s64 = instrumented_set(&s64, &discard);
  std::vector<double> t_plain, t_s1, t_s64;
  double profiled_work = 0, profiled_ticks = 0;
  for (int round = 0; round < kRounds; ++round) {
    t_plain.push_back(
        evaluate_all(dse::WorkloadSet::builtin(), short_spec, short_points, nullptr, nullptr));
    t_s1.push_back(
        evaluate_all(set_s1, short_spec, short_points, &profiled_work, &profiled_ticks));
    t_s64.push_back(evaluate_all(set_s64, short_spec, short_points, nullptr, nullptr));
  }
  profile.emit(r, profiled_work, profiled_ticks);
  m["obs.profiler_overhead_pct_s1"] = overhead_pct(median(t_plain), median(t_s1));
  m["obs.profiler_overhead_pct_s64"] = overhead_pct(median(t_plain), median(t_s64));

  if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
    replay_fails.push_back("cannot write " + opt.trace_out);
  }
  r.record(replay_fails);
  return r;
}

}  // namespace perfbench
