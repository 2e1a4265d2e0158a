// lint_chain: mte_lint --perf on one long S=4 buffer+function chain,
// which forms a single strongly connected marked graph: parse_netlist ->
// analyze with perf = true -> text and JSON render. Nothing is simulated;
// the Howard/Karp solve dominates.
#include "analysis/analyze.hpp"
#include "analysis/perf.hpp"
#include "generators.hpp"
#include "netlist/text_format.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStages = 4000;
constexpr int kRounds = 3;

struct LintJob {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
};

/// One closed-loop job: parse, analyze with the perf pass, render both
/// report formats; the JSON report is the checked output.
LintJob lint_job(const std::string& text, Failures& fails) {
  LintJob job;
  const auto t0 = Clock::now();
  try {
    mte::netlist::Netlist nl;
    {
      Span s("netlist.parse", "netlist");
      nl = mte::netlist::parse_netlist(text);
    }
    job.setup_s = seconds_since(t0);
    mte::analysis::AnalysisOptions options;
    options.perf = true;
    mte::analysis::AnalysisReport report;
    {
      Span s("analysis.analyze_with_perf", "analysis");
      report = mte::analysis::analyze(nl, options);
    }
    std::string text_report, json_report;
    {
      Span s("analysis.render", "analysis");
      text_report = report.render_text();
      json_report = report.render_json();
    }
    for (const auto& d : report.diagnostics()) {
      if (d.severity == mte::analysis::Severity::kError) {
        fails.push_back("lint error: " + d.code + " " + d.message);
      }
    }
    if (text_report.empty()) fails.push_back("empty text report");
    job.digest = fnv1a(json_report);
  } catch (const std::exception& ex) {
    fails.push_back(std::string("lint job threw: ") + ex.what());
  }
  job.wall_s = seconds_since(t0);
  return job;
}

/// Medians of parse, structural analyze and analyze_perf on `text`.
struct PhaseTimes {
  double parse = 0, analyze = 0, perf = 0;
  std::size_t iterations = 0;
};

PhaseTimes time_phases(const std::string& text, Failures& fails) {
  std::vector<double> parse, analyze, perf;
  PhaseTimes out;
  for (int rep = 0; rep < kRounds; ++rep) {
    auto t = Clock::now();
    const auto nl = mte::netlist::parse_netlist(text);
    parse.push_back(seconds_since(t));
    t = Clock::now();
    const auto report = mte::analysis::analyze(nl);
    analyze.push_back(seconds_since(t));
    if (report.error_count() != 0 || report.warning_count() != 0) {
      fails.push_back("generated chain is not lint-clean:\n" + report.render_text());
    }
    t = Clock::now();
    const auto pr = mte::analysis::analyze_perf(nl);
    perf.push_back(seconds_since(t));
    if (!pr.converged || !pr.karp_agrees) {
      fails.push_back("analyze_perf: Howard did not converge or Karp disagrees");
    }
    out.iterations = pr.iterations;
  }
  out.parse = median(parse);
  out.analyze = median(analyze);
  out.perf = median(perf);
  return out;
}

}  // namespace

std::string lint_job_digest(std::uint64_t seed) {
  Failures fails;
  const LintJob job = lint_job(chain_enl(seed, kStages), fails);
  return fails.empty() ? hex64(job.digest) : std::string{};
}

RunResult run_lint(const RunOptions& opt) {
  RunResult r;
  const std::string text = chain_enl(opt.seed, kStages);

  // The perf pass's own peak memory, read before anything else in the
  // process has raised the peak; then the lint-cleanliness check.
  Failures pre_fails;
  double perf_rss = 0.0;
  mte::netlist::Netlist nl = mte::netlist::parse_netlist(text);
  {
    const double before = peak_rss_mb();
    const auto pr = mte::analysis::analyze_perf(nl);
    perf_rss = peak_rss_mb() - before;
    if (!pr.converged || !pr.karp_agrees) {
      pre_fails.push_back("analyze_perf: Howard did not converge or Karp disagrees");
    }
  }
  const auto structural = mte::analysis::analyze(nl);
  if (structural.error_count() != 0 || structural.warning_count() != 0) {
    pre_fails.push_back("generated chain is not lint-clean:\n" + structural.render_text());
  }
  // A warm-up job, checked but not timed. Without a recorded digest it
  // is the reference every later job must reproduce.
  const LintJob warm = lint_job(text, pre_fails);
  const std::string expected = opt.expect_digest.empty() ? hex64(warm.digest) : opt.expect_digest;
  check_digest(warm.digest, expected, pre_fails);
  r.record(pre_fails);
  r.digest = hex64(warm.digest);

  Tracer tracer;
  std::vector<double> setup, wall, rate, plain_wall, traced_wall;
  closed_loop(opt.seconds, opt.trace, tracer, [&](bool traced_job) {
    Failures fails;
    const LintJob lj = lint_job(text, fails);
    (traced_job ? traced_wall : plain_wall).push_back(lj.wall_s);
    check_digest(lj.digest, expected, fails);
    r.record(fails);
    setup.push_back(lj.setup_s);
    wall.push_back(lj.wall_s);
    rate.push_back(static_cast<double>(kStages) / lj.wall_s);
  });
  if (!opt.trace) {
    r.set_end_to_end(setup, wall, rate);
    return r;
  }

  auto& m = r.metrics;
  const double jobs = static_cast<double>(tracer.count("netlist.parse"));
  m["netlist.parse_s"] = tracer.total_s("netlist.parse") / jobs;
  m["analysis.render_s"] = tracer.total_s("analysis.render") / jobs;
  m["netlist.components"] = static_cast<double>(nl.nodes().size());
  m["netlist.channels"] = static_cast<double>(nl.edges().size());
  m["analysis.perf_rss_mb"] = perf_rss;
  m["obs.tracing_overhead_pct"] = overhead_pct(median(plain_wall), median(traced_wall));
  for (const auto& [layer, self_s] : tracer.self_by_layer()) {
    m[layer + ".self_s"] = self_s / jobs;
  }

  // The structural checks and the perf pass on their own (the job runs
  // them as one analyze call), and again at half the chain length.
  Failures phase_fails;
  const PhaseTimes full = time_phases(text, phase_fails);
  const PhaseTimes half = time_phases(chain_enl(opt.seed, kStages / 2), phase_fails);
  m["analysis.analyze_s"] = full.analyze;
  m["analysis.perf_s"] = full.perf;
  m["analysis.perf_iterations"] = static_cast<double>(full.iterations);
  m["netlist.parse_growth_2x"] = ratio(full.parse, half.parse);
  m["analysis.analyze_growth_2x"] = ratio(full.analyze, half.analyze);
  m["analysis.perf_growth_2x"] = ratio(full.perf, half.perf);
  if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
    phase_fails.push_back("cannot write " + opt.trace_out);
  }
  r.record(phase_fails);
  return r;
}

}  // namespace perfbench
