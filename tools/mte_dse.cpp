// mte_dse: the design-space exploration CLI.
//
// Runs a sweep campaign described by flags, a spec file, or a named
// preset; executes the points in parallel on host threads; and emits the
// schema-versioned CSV/JSON report plus a terminal summary with the
// throughput-vs-area Pareto frontier.
//
//   mte_dse                         # default campaign (64 points)
//   mte_dse --preset table1         # the paper's Table I, one command
//   mte_dse --preset smoke --json report.json
//   mte_dse --workloads fig5 --variants full,hybrid,reduced
//           --threads 1,2,4,8 --shared-slots 0,1,2 --workers 4   (one line)
//   mte_dse --spec campaign.dse --csv out.csv
//   mte_dse --print-schema          # CI drift gate input
//
// Scale-out: a campaign can be split across CI jobs or machines with
//   mte_dse --shard 0/3 --json shard0.json   (likewise 1/3, 2/3)
//   mte_dse merge -o merged.json shard0.json shard1.json shard2.json
// Points are densely indexed and self-seeded, so sharding is a pure
// filter and the merged report is byte-identical to an unsharded run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_number.hpp"
#include "dse/campaign.hpp"
#include "dse/merge.hpp"
#include "dse/report.hpp"
#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"

namespace {

using namespace mte;

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "mte_dse — design-space exploration over the multithreaded elastic "
      "primitives\n\n"
      "axes (comma-separated lists):\n"
      "  --workloads fig1,fig5,md5,processor\n"
      "  --variants full,hybrid,reduced\n"
      "  --threads 1,2,4,8\n"
      "  --shared-slots 0,1,2      hybrid-MEB pool sizes (capacity axis)\n"
      "  --arbiters round_robin,oblivious,fixed_priority,matrix\n"
      "  --kernels event,naive\n"
      "campaign:\n"
      "  --cycles N                cycles per fig* point (default 2000)\n"
      "  --seed N                  campaign seed (default 1)\n"
      "  --workers N               host threads (default hardware, 0 = auto)\n"
      "  --shard I/N               run only points with index %% N == I\n"
      "  --screen                  static screening: walk points serially and\n"
      "                            skip simulating any point whose static\n"
      "                            throughput bound is dominated by an earlier\n"
      "                            measured point at equal-or-lower area\n"
      "                            (failure_kind 'screened'; Pareto frontier\n"
      "                            unchanged); incompatible with --shard\n"
      "  --spec FILE               read axes from a spec file (overrides axis flags)\n"
      "  --preset NAME             default | smoke | table1 | capacity | arbiter\n"
      "checkpointing (netlist workloads only; md5/processor run normally):\n"
      "  --checkpoint-dir DIR      write one snapshot per point at the warmup\n"
      "                            cycle (dir is created if missing)\n"
      "  --warmup N                warmup cycle for the snapshots (default\n"
      "                            cycles/2)\n"
      "  --restore                 warm-start every point from its snapshot in\n"
      "                            --checkpoint-dir instead of re-simulating\n"
      "                            the warmup prefix; the report is byte-\n"
      "                            identical to the cold run's\n"
      "robustness (netlist workloads only; md5/processor run normally):\n"
      "  --monitors                attach SELF protocol monitors to every\n"
      "                            channel; a violating point is quarantined\n"
      "                            as a failed record (failure_kind\n"
      "                            'violation'), not campaign-fatal\n"
      "  --watchdog N              per-point no-progress deadline: N cycles\n"
      "                            without a transfer quarantines the point\n"
      "                            (failure_kind 'watchdog') with a wait-for\n"
      "                            diagnosis; implies --monitors\n"
      "  --artifacts DIR           commit a repro bundle (repro.txt, snapshot,\n"
      "                            diagnosis) per quarantined point under DIR\n"
      "outputs:\n"
      "  --csv FILE | -            write CSV (- = stdout)\n"
      "  --json FILE | -           write JSON (- = stdout)\n"
      "  --metrics-out FILE | -    write the per-point kernel-metrics CSV\n"
      "                            (settle work, evals, ticks, elisions,\n"
      "                            demotions; separate schema from --csv)\n"
      "  --quiet                   suppress the terminal table\n"
      "subcommands:\n"
      "  merge [-o FILE] SHARD...  join shard reports (CSV or JSON, auto-\n"
      "                            detected; all inputs one format) into the\n"
      "                            byte-identical unsharded report\n"
      "other:\n"
      "  --print-schema            print schema version + CSV header and exit\n"
      "  --print-spec              print the resolved spec and exit\n"
      "  --list-workloads          list workloads and exit\n"
      "  --help\n");
  std::exit(code);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string item; std::getline(is, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::uint64_t parse_u64(const std::string& v, const char* flag) {
  return cli::parse_number<std::uint64_t>("mte_dse", v, flag);
}

dse::SweepSpec preset_spec(const std::string& name) {
  dse::SweepSpec spec;
  if (name == "default") {
    // The broad campaign: every netlist axis against both fig workloads.
    spec.workloads = {"fig1", "fig5"};
    spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kHybrid,
                     dse::MebVariant::kReduced};
    spec.threads = {1, 2, 4, 8};
    spec.shared_slots = {0, 1};
    spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious};
  } else if (name == "smoke") {
    // <= 12 quick points with full CSV/JSON coverage, for CI.
    spec.workloads = {"fig1", "fig5"};
    spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kReduced};
    spec.threads = {2, 4};
    spec.cycles = 600;
  } else if (name == "table1") {
    // The paper's Table I shape: both Sec. V engines, full vs reduced,
    // 8 threads plus the 16-thread scaling extension.
    spec.workloads = {"md5", "processor"};
    spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kReduced};
    spec.threads = {8, 16};
  } else if (name == "capacity") {
    // The hybrid shared-pool ablation (ABL-SLOTS as a campaign).
    spec.workloads = {"fig5"};
    spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kHybrid,
                     dse::MebVariant::kReduced};
    spec.threads = {4, 8};
    spec.shared_slots = {0, 1, 2, 4, 8};
  } else if (name == "arbiter") {
    spec.workloads = {"fig1", "fig5"};
    spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kReduced};
    spec.threads = {4, 8};
    spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious,
                     mt::ArbiterKind::kFixedPriority, mt::ArbiterKind::kMatrix};
  } else {
    std::fprintf(stderr, "mte_dse: unknown preset '%s'\n", name.c_str());
    std::exit(2);
  }
  return spec;
}

void write_output(const std::string& path, const std::string& content,
                  const char* what) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mte_dse: cannot write %s to '%s'\n", what, path.c_str());
    std::exit(2);
  }
  out << content;
  std::fprintf(stderr, "mte_dse: wrote %s to %s\n", what, path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mte_dse: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `mte_dse merge [-o FILE] SHARD...` — format auto-detected from the
/// first input ('{' opens a JSON report, anything else is CSV).
int run_merge(int argc, char** argv) {
  std::string out_path = "-";
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" || arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mte_dse: %s needs a value\n", arg.c_str());
        return 2;
      }
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "mte_dse: merge needs at least one shard report\n");
    return 2;
  }
  std::vector<std::string> shards;
  shards.reserve(inputs.size());
  for (const auto& path : inputs) shards.push_back(read_file(path));

  const std::size_t first = shards[0].find_first_not_of(" \t\r\n");
  const bool json = first != std::string::npos && shards[0][first] == '{';
  try {
    const std::string merged = json ? dse::merge_json(shards) : dse::merge_csv(shards);
    write_output(out_path, merged, json ? "merged JSON" : "merged CSV");
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "mte_dse: %s\n", ex.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "merge") return run_merge(argc, argv);

  dse::SweepSpec spec = preset_spec("default");
  std::size_t workers = 0;  // auto
  dse::Shard shard;
  dse::CheckpointPolicy ckpt;
  dse::RobustnessPolicy robust;
  bool warmup_set = false;
  std::string csv_path;
  std::string json_path;
  std::string metrics_path;
  bool quiet = false;
  bool print_spec = false;
  bool screen = false;

  const auto arg_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mte_dse: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  // Pass 1: base spec selection (--preset / --spec) applies first no
  // matter where it appears, so `--seed 5 --preset smoke` doesn't
  // silently discard the seed; axis flags then refine the base.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--preset") {
      spec = preset_spec(arg_value(i));
    } else if (arg == "--spec") {
      const std::string path = arg_value(i);
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "mte_dse: cannot read spec '%s'\n", path.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        spec = dse::SweepSpec::parse(text.str());
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "mte_dse: %s\n", ex.what());
        return 2;
      }
    }
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--list-workloads") {
      for (const auto& name : dse::WorkloadSet::builtin().names()) {
        std::printf("%-10s %s\n", name.c_str(),
                    dse::WorkloadSet::builtin().at(name).description.c_str());
      }
      return 0;
    } else if (arg == "--print-schema") {
      std::printf("schema_version %d\n%s\n", dse::kReportSchemaVersion,
                  dse::Report::csv_header().c_str());
      return 0;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--preset" || arg == "--spec") {
      ++i;  // handled in pass 1
    } else if (arg == "--workloads") {
      spec.workloads = split_csv(arg_value(i));
    } else if (arg == "--variants") {
      spec.variants.clear();
      for (const auto& v : split_csv(arg_value(i))) {
        const auto parsed = dse::parse_meb_variant(v);
        if (!parsed) {
          std::fprintf(stderr, "mte_dse: unknown variant '%s'\n", v.c_str());
          return 2;
        }
        spec.variants.push_back(*parsed);
      }
    } else if (arg == "--threads") {
      spec.threads.clear();
      for (const auto& v : split_csv(arg_value(i))) {
        spec.threads.push_back(parse_u64(v, "--threads"));
      }
    } else if (arg == "--shared-slots") {
      spec.shared_slots.clear();
      for (const auto& v : split_csv(arg_value(i))) {
        spec.shared_slots.push_back(parse_u64(v, "--shared-slots"));
      }
    } else if (arg == "--arbiters") {
      spec.arbiters.clear();
      for (const auto& v : split_csv(arg_value(i))) {
        const auto parsed = mt::parse_arbiter_kind(v);
        if (!parsed) {
          std::fprintf(stderr, "mte_dse: unknown arbiter '%s'\n", v.c_str());
          return 2;
        }
        spec.arbiters.push_back(*parsed);
      }
    } else if (arg == "--kernels") {
      spec.kernels.clear();
      for (const auto& v : split_csv(arg_value(i))) {
        const auto parsed = sim::parse_kernel_kind(v);
        if (!parsed) {
          std::fprintf(stderr, "mte_dse: unknown kernel '%s'\n", v.c_str());
          return 2;
        }
        spec.kernels.push_back(*parsed);
      }
    } else if (arg == "--cycles") {
      spec.cycles = parse_u64(arg_value(i), "--cycles");
    } else if (arg == "--seed") {
      spec.seed = parse_u64(arg_value(i), "--seed");
    } else if (arg == "--workers") {
      workers = parse_u64(arg_value(i), "--workers");
    } else if (arg == "--shard") {
      const std::string v = arg_value(i);
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos) {
        std::fprintf(stderr, "mte_dse: --shard wants I/N, got '%s'\n", v.c_str());
        return 2;
      }
      shard.index = parse_u64(v.substr(0, slash), "--shard");
      shard.count = parse_u64(v.substr(slash + 1), "--shard");
      if (shard.count == 0 || shard.index >= shard.count) {
        std::fprintf(stderr, "mte_dse: --shard %s out of range (want I < N)\n",
                     v.c_str());
        return 2;
      }
    } else if (arg == "--screen") {
      screen = true;
    } else if (arg == "--checkpoint-dir") {
      ckpt.dir = arg_value(i);
    } else if (arg == "--warmup") {
      ckpt.warmup = parse_u64(arg_value(i), "--warmup");
      warmup_set = true;
    } else if (arg == "--restore") {
      ckpt.restore = true;
    } else if (arg == "--monitors") {
      robust.monitors = true;
    } else if (arg == "--watchdog") {
      robust.watchdog = parse_u64(arg_value(i), "--watchdog");
      robust.monitors = true;  // the watchdog's progress signal
    } else if (arg == "--artifacts") {
      robust.artifact_dir = arg_value(i);
    } else if (arg == "--csv") {
      csv_path = arg_value(i);
    } else if (arg == "--json") {
      json_path = arg_value(i);
    } else if (arg == "--metrics-out") {
      metrics_path = arg_value(i);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "mte_dse: unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }

  if (print_spec) {
    std::fputs(spec.serialize().c_str(), stdout);
    return 0;
  }

  if (screen && shard.count > 1) {
    std::fprintf(stderr, "mte_dse: --screen is incompatible with --shard\n");
    return 2;
  }
  if (screen && workers != 1) {
    // The skip decision reads every earlier point's measured result.
    if (workers > 1) {
      std::fprintf(stderr, "mte_dse: --screen runs serially (ignoring --workers)\n");
    }
    workers = 1;
  }

  if (ckpt.restore && ckpt.dir.empty()) {
    std::fprintf(stderr, "mte_dse: --restore needs --checkpoint-dir\n");
    return 2;
  }
  if (!ckpt.dir.empty()) {
    if (!warmup_set) ckpt.warmup = spec.cycles / 2;
    if (ckpt.warmup == 0) {
      std::fprintf(stderr, "mte_dse: --warmup must be positive\n");
      return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(ckpt.dir, ec);
    if (ec) {
      std::fprintf(stderr, "mte_dse: cannot create checkpoint dir '%s': %s\n",
                   ckpt.dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::fprintf(stderr, "mte_dse: checkpoints %s %s at cycle %llu\n",
                 ckpt.restore ? "restored from" : "written to", ckpt.dir.c_str(),
                 static_cast<unsigned long long>(ckpt.warmup));
  }

  if (!robust.artifact_dir.empty() && !robust.enabled()) {
    std::fprintf(stderr, "mte_dse: --artifacts needs --monitors or --watchdog\n");
    return 2;
  }
  if (!robust.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(robust.artifact_dir, ec);
    if (ec) {
      std::fprintf(stderr, "mte_dse: cannot create artifact dir '%s': %s\n",
                   robust.artifact_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  if (robust.enabled()) {
    std::fprintf(stderr, "mte_dse: robustness on (monitors%s%s)\n",
                 robust.watchdog > 0 ? ", watchdog" : "",
                 robust.artifact_dir.empty() ? "" : ", artifacts");
  }

  try {
    const auto points = spec.enumerate();
    if (points.empty()) {
      std::fprintf(stderr,
                   "mte_dse: the spec enumerates no points (every "
                   "combination was pruned) — nothing to run\n");
      return 2;
    }
    if (shard.count > 1) {
      std::size_t mine = 0;
      for (const auto& p : points) mine += shard.covers(p.index) ? 1 : 0;
      std::fprintf(stderr, "mte_dse: %zu points, seed %llu, shard %zu/%zu (%zu points)\n",
                   points.size(), static_cast<unsigned long long>(spec.seed),
                   shard.index, shard.count, mine);
    } else {
      std::fprintf(stderr, "mte_dse: %zu points, seed %llu\n", points.size(),
                   static_cast<unsigned long long>(spec.seed));
    }

    const dse::CampaignRunner runner;
    const auto start = std::chrono::steady_clock::now();
    const auto records = runner.run(spec, workers, shard, ckpt, robust, screen);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    const dse::Report report(spec, std::move(records));
    // With robustness active, quarantined points (violation/watchdog) are
    // the hardening layer doing its job: they are reported as failed
    // records but don't flip the exit code. Plain exceptions still do.
    std::size_t failed = 0;
    std::size_t quarantined = 0;
    std::size_t screened = 0;
    for (const auto& r : report.records()) {
      if (r.ok()) continue;
      if (r.failure_kind == "screened") {
        ++screened;
      } else if (robust.enabled() &&
                 (r.failure_kind == "violation" || r.failure_kind == "watchdog")) {
        ++quarantined;
      } else {
        ++failed;
      }
    }
    std::fprintf(stderr,
                 "mte_dse: evaluated %zu points in %.2fs (%zu failed, %zu "
                 "quarantined)\n",
                 report.records().size(), secs, failed, quarantined);
    if (screen) {
      std::fprintf(stderr, "mte_dse: screened %zu of %zu points without simulation\n",
                   screened, report.records().size());
    }

    if (!quiet) std::fputs(report.to_table().c_str(), stdout);
    if (!csv_path.empty()) write_output(csv_path, report.to_csv(), "CSV");
    if (!json_path.empty()) write_output(json_path, report.to_json(), "JSON");
    if (!metrics_path.empty()) {
      write_output(metrics_path, report.metrics_csv(), "metrics CSV");
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "mte_dse: %s\n", ex.what());
    return 2;
  }
}
