// mte_lint: static elastic-netlist linter.
//
// Runs the analysis suite (analysis/analyze.hpp) over .enl files — or
// over the seeded fuzz corpus shared with the kernel-equivalence tests —
// and reports structured MTExxx diagnostics as text or JSON. CI gates on
// the exit code: a broken committed example or a generator regression
// that starts emitting unclean netlists fails the lint job in
// milliseconds, long before a simulation campaign would notice.
//
//   mte_lint examples/fig5_pipeline.enl
//   mte_lint --json -o report.json examples/*.enl
//   mte_lint --fuzz-corpus 64 --seed 20260730
//   mte_lint --arbiter oblivious --shared-slots 4 design.enl
//
// Exit codes: 0 = no errors (warnings allowed unless --werror),
//             1 = error-severity diagnostics (or warnings with --werror),
//             2 = usage, I/O or parse failure.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "netlist/fuzz.hpp"
#include "netlist/text_format.hpp"

namespace {

using mte::analysis::AnalysisOptions;
using mte::analysis::AnalysisReport;

void usage(std::ostream& os) {
  os << "usage: mte_lint [options] <netlist.enl>...\n"
        "       mte_lint --fuzz-corpus <n> [--seed <base>] [options]\n"
        "\n"
        "Static elastic-netlist linter: structured MTExxx diagnostics\n"
        "(wiring, dead components, combinational valid/ready cycles,\n"
        "structural deadlock, MT reconvergence, capacity sanity).\n"
        "\n"
        "options:\n"
        "  --arbiter <kind>     arbitration assumed at elaboration:\n"
        "                       round_robin (default), oblivious,\n"
        "                       fixed_priority, matrix\n"
        "  --shared-slots <k>   hybrid MEB pool size K (enables the\n"
        "                       MTE041/042 pool checks)\n"
        "  --fuzz-corpus <n>    lint n generated netlists from the seeded\n"
        "                       fuzz generator instead of files\n"
        "  --seed <base>        fuzz corpus base seed (default 0xC0FFEE;\n"
        "                       CI pins the same seed as the fuzz tests)\n"
        "  --perf               run the static performance pass too:\n"
        "                       MTE050-054 throughput bounds, bottleneck\n"
        "                       cycle and buffer fix-its\n"
        "  --json               JSON report instead of text\n"
        "  --sarif              SARIF 2.1.0 report (code-scanning upload)\n"
        "  -o, --output <file>  write the report to a file\n"
        "  --werror             exit 1 on warnings too\n"
        "  --quiet              text mode: only print findings\n"
        "  -h, --help           this message\n"
        "\n"
        "exit codes: 0 clean, 1 diagnostics at gating severity, 2 failure\n";
}

struct LintedInput {
  std::string name;
  AnalysisReport report;
};

/// One input's text block: a `== name` header plus the rendered report.
void print_text(std::ostream& os, const LintedInput& input, bool quiet) {
  if (quiet && input.report.empty()) return;
  os << "== " << input.name << "\n" << input.report.render_text();
}

/// The multi-input JSON wrapper. Each entry embeds the report's own
/// schema-versioned object unchanged, so per-file consumers and the
/// aggregate artifact share one diagnostic schema.
std::string render_json(const std::vector<LintedInput>& inputs) {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"inputs\": [";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    errors += inputs[i].report.error_count();
    warnings += inputs[i].report.warning_count();
    notes += inputs[i].report.note_count();
    std::string body = inputs[i].report.render_json();
    while (!body.empty() && body.back() == '\n') body.pop_back();
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": \"" << mte::analysis::json_escape(inputs[i].name)
       << "\", \"report\": " << body << "}";
  }
  if (!inputs.empty()) os << "\n  ";
  os << "],\n";
  os << "  \"total_errors\": " << errors << ",\n";
  os << "  \"total_warnings\": " << warnings << ",\n";
  os << "  \"total_notes\": " << notes << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  AnalysisOptions options;
  bool json = false;
  bool sarif = false;
  bool werror = false;
  bool quiet = false;
  std::optional<std::string> output;
  std::size_t fuzz_corpus = 0;
  std::uint64_t fuzz_seed = 0xC0FFEEu;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "mte_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (a == "-h" || a == "--help") {
      usage(std::cout);
      return 0;
    } else if (a == "--arbiter") {
      const auto kind = mte::mt::parse_arbiter_kind(value("--arbiter"));
      if (!kind) {
        std::cerr << "mte_lint: unknown arbiter '" << args[i] << "'\n";
        return 2;
      }
      options.arbiter = *kind;
    } else if (a == "--shared-slots") {
      try {
        options.meb_shared_slots = std::stoul(value("--shared-slots"));
      } catch (const std::exception&) {
        std::cerr << "mte_lint: bad --shared-slots '" << args[i] << "'\n";
        return 2;
      }
    } else if (a == "--fuzz-corpus") {
      try {
        fuzz_corpus = std::stoul(value("--fuzz-corpus"));
      } catch (const std::exception&) {
        std::cerr << "mte_lint: bad --fuzz-corpus '" << args[i] << "'\n";
        return 2;
      }
    } else if (a == "--seed") {
      try {
        fuzz_seed = std::stoull(value("--seed"), nullptr, 0);
      } catch (const std::exception&) {
        std::cerr << "mte_lint: bad --seed '" << args[i] << "'\n";
        return 2;
      }
    } else if (a == "--perf") {
      options.perf = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--sarif") {
      sarif = true;
    } else if (a == "--werror") {
      werror = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "-o" || a == "--output") {
      output = value("-o");
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "mte_lint: unknown option '" << a << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty() && fuzz_corpus == 0) {
    usage(std::cerr);
    return 2;
  }
  if (!files.empty() && fuzz_corpus != 0) {
    std::cerr << "mte_lint: give either files or --fuzz-corpus, not both\n";
    return 2;
  }
  if (json && sarif) {
    std::cerr << "mte_lint: give either --json or --sarif, not both\n";
    return 2;
  }

  std::vector<LintedInput> inputs;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "mte_lint: cannot open '" << file << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const auto net = mte::netlist::parse_netlist(text.str());
      inputs.push_back({file, net.analyze(options)});
    } catch (const mte::netlist::ParseError& ex) {
      std::cerr << "mte_lint: " << file << ": " << ex.what() << "\n";
      return 2;
    }
  }
  for (std::size_t k = 0; k < fuzz_corpus; ++k) {
    const std::uint64_t seed = fuzz_seed + k;
    std::mt19937_64 rng(seed);
    bool has_mt_join = false;
    const auto net = mte::netlist::random_fuzz_netlist(rng, has_mt_join);
    // Joins over independent arms are only elaborated under the
    // oblivious arbiter (see fuzz.hpp) — lint under the same contract.
    // The perf pass always runs on the corpus: the optimality
    // certificate it checks Howard's result with (MTE054) surfaces solver
    // regressions with the seed right in the input name.
    AnalysisOptions case_options = options;
    if (has_mt_join) case_options.arbiter = mte::mt::ArbiterKind::kOblivious;
    case_options.perf = true;
    inputs.push_back({"fuzz:" + std::to_string(seed), net.analyze(case_options)});
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const auto& input : inputs) {
    errors += input.report.error_count();
    warnings += input.report.warning_count();
  }

  std::ostringstream report;
  if (json) {
    report << render_json(inputs);
  } else if (sarif) {
    std::vector<std::pair<std::string, AnalysisReport>> named;
    named.reserve(inputs.size());
    for (const auto& input : inputs) named.emplace_back(input.name, input.report);
    report << mte::analysis::render_sarif(named);
  } else {
    for (const auto& input : inputs) print_text(report, input, quiet);
    report << inputs.size() << " netlist(s): " << errors << " error(s), " << warnings
           << " warning(s)\n";
  }
  if (output) {
    std::ofstream out(*output);
    if (!out) {
      std::cerr << "mte_lint: cannot write '" << *output << "'\n";
      return 2;
    }
    out << report.str();
  } else {
    std::cout << report.str();
  }

  return errors > 0 || (werror && warnings > 0) ? 1 : 0;
}
