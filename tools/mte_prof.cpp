// mte_prof: run an .enl netlist workload under full observability.
//
// Elaborates the netlist, drives every source with an endless sequential
// token generator (rates come from the netlist's node attributes, seeded
// deterministically), runs the requested number of cycles, and writes:
//
//   --metrics <file>   deterministic metrics snapshot (.json or .csv by
//                      extension) — byte-identical across runs at the
//                      same seed; --all-categories adds the volatile
//                      timing rows
//   --trace <file>     Chrome trace_event JSON (open at ui.perfetto.dev
//                      or chrome://tracing): settle/commit phase spans,
//                      settle_work counter, tick-elision marks, and every
//                      channel transfer as an instant on the overlay
//                      track
//   --vcd <file>       channel valid/ready/data waveform (GTKWave)
//
// and prints the per-type profiler ranking (the table that tells the
// compiled-kernel work what to batch first) plus the channel stats table.
//
//   mte_prof examples/fig5_pipeline.enl
//   mte_prof --cycles 5000 --metrics m.json --trace t.json design.enl
//   mte_prof --kernel naive --metrics m.csv design.enl
//
// Exit codes: 0 = success, 2 = usage/I-O/parse/elaboration failure,
// 3 = protocol violation or watchdog expiry under --monitors/--watchdog.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cli_number.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/text_format.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"
#include "sim/protocol_monitor.hpp"
#include "sim/vcd.hpp"

namespace {

using mte::netlist::Elaboration;
using mte::netlist::ElaborationOptions;
using mte::netlist::Netlist;
using mte::netlist::NodeType;
using Word = mte::netlist::Word;

void usage(std::ostream& os) {
  os << "usage: mte_prof [options] <netlist.enl>\n"
        "\n"
        "Runs an elastic netlist workload and exports metrics, a Chrome\n"
        "trace (Perfetto-loadable), a profiler ranking, and optionally a\n"
        "VCD waveform.\n"
        "\n"
        "options:\n"
        "  --cycles <n>         cycles to simulate (default 2000)\n"
        "  --kernel <k>         event (default) | naive\n"
        "  --arbiter <kind>     round_robin (default), oblivious,\n"
        "                       fixed_priority, matrix\n"
        "  --shared-slots <k>   elaborate buffers as reduced MEBs with a\n"
        "                       pool of k shared slots\n"
        "  --seed <n>           base seed for source/sink rate gates\n"
        "                       (default 1)\n"
        "  --metrics <file>     write the metrics snapshot (.csv => CSV,\n"
        "                       anything else => JSON)\n"
        "  --all-categories     include volatile timing rows in the\n"
        "                       snapshot (off: snapshot is byte-stable)\n"
        "  --trace <file>       write Chrome trace_event JSON\n"
        "  --trace-limit <n>    trace event cap (default 1000000)\n"
        "  --vcd <file>         write a channel waveform VCD\n"
        "  --stride <n>         profiler sampling stride (default 1:\n"
        "                       time every dispatch)\n"
        "  --top <n>            instances in the profiler ranking\n"
        "                       (default 8)\n"
        "  --monitors           attach SELF protocol monitors to every\n"
        "                       channel; violations print to stderr and\n"
        "                       the exit code becomes 3\n"
        "  --watchdog <n>       no-progress deadline: abort (exit 3) with\n"
        "                       a wait-for diagnosis after n cycles\n"
        "                       without a transfer; implies --monitors\n"
        "  --quiet              suppress the report tables on stdout\n"
        "  -h, --help           this message\n";
}

struct Args {
  std::string netlist_path;
  std::uint64_t cycles = 2000;
  mte::sim::KernelKind kernel = mte::sim::KernelKind::kEventDriven;
  mte::mt::ArbiterKind arbiter = mte::mt::ArbiterKind::kRoundRobin;
  std::optional<std::size_t> shared_slots;
  std::uint64_t seed = 1;
  std::string metrics_path;
  bool all_categories = false;
  std::string trace_path;
  std::size_t trace_limit = 1'000'000;
  std::string vcd_path;
  std::uint32_t stride = 1;
  std::size_t top = 8;
  bool monitors = false;
  std::uint64_t watchdog = 0;
  bool quiet = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "mte_prof: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](const char* flag, auto& out) {
      out = mte::cli::parse_number<std::remove_reference_t<decltype(out)>>(
          "mte_prof", value(flag), flag);
    };
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      std::exit(0);
    } else if (arg == "--cycles") {
      number("--cycles", a.cycles);
    } else if (arg == "--kernel") {
      const std::string k = value("--kernel");
      const auto parsed = mte::sim::parse_kernel_kind(k);
      if (!parsed) {
        std::cerr << "mte_prof: unknown kernel '" << k << "'\n";
        return false;
      }
      a.kernel = *parsed;
    } else if (arg == "--arbiter") {
      const std::string k = value("--arbiter");
      const auto kind = mte::mt::parse_arbiter_kind(k);
      if (!kind) {
        std::cerr << "mte_prof: unknown arbiter '" << k << "'\n";
        return false;
      }
      a.arbiter = *kind;
    } else if (arg == "--shared-slots") {
      number("--shared-slots", a.shared_slots.emplace());
    } else if (arg == "--seed") {
      number("--seed", a.seed);
    } else if (arg == "--metrics") {
      a.metrics_path = value("--metrics");
    } else if (arg == "--all-categories") {
      a.all_categories = true;
    } else if (arg == "--trace") {
      a.trace_path = value("--trace");
    } else if (arg == "--trace-limit") {
      number("--trace-limit", a.trace_limit);
    } else if (arg == "--vcd") {
      a.vcd_path = value("--vcd");
    } else if (arg == "--stride") {
      number("--stride", a.stride);
    } else if (arg == "--top") {
      number("--top", a.top);
    } else if (arg == "--monitors") {
      a.monitors = true;
    } else if (arg == "--watchdog") {
      number("--watchdog", a.watchdog);
      a.monitors = true;  // the watchdog's progress signal
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mte_prof: unknown option '" << arg << "'\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    usage(std::cerr);
    return false;
  }
  a.netlist_path = positional[0];
  return true;
}

/// Endless sequential tokens on every source; rates come from the node
/// attributes via the factory builders, but their gate seeds are re-pinned
/// from the CLI seed so two runs at the same seed are bit-identical.
void drive_sources(const Netlist& nl, Elaboration& elab, std::uint64_t seed) {
  for (const auto& node : nl.nodes()) {
    if (node.type != NodeType::kSource) continue;
    if (elab.is_multithreaded()) {
      auto& src = elab.mt_source(node.name);
      for (std::size_t t = 0; t < src.threads(); ++t) {
        // Tag tokens with the thread in the high byte so per-thread
        // streams stay distinguishable in traces.
        src.set_generator(t, [t](std::uint64_t i) {
          return (static_cast<Word>(t) << 56) | i;
        });
        src.set_rate(t, node.rate, seed + 17 * (node.id + 1));
      }
    } else {
      auto& src = elab.source(node.name);
      src.set_generator([](std::uint64_t i) { return i; });
      src.set_rate(node.rate, seed + 17 * (node.id + 1));
    }
  }
  for (const auto& node : nl.nodes()) {
    if (node.type != NodeType::kSink) continue;
    if (elab.is_multithreaded()) {
      auto& snk = elab.mt_sink(node.name);
      for (std::size_t t = 0; t < snk.threads(); ++t) {
        snk.set_rate(t, node.rate, seed + 23 * (node.id + 1));
      }
    } else {
      elab.sink(node.name).set_rate(node.rate, seed + 23 * (node.id + 1));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  std::ifstream in(args.netlist_path);
  if (!in) {
    std::cerr << "mte_prof: cannot open '" << args.netlist_path << "'\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  try {
    const Netlist nl = mte::netlist::parse_netlist(text.str());

    ElaborationOptions options;
    options.kernel = args.kernel;
    options.arbiter = args.arbiter;
    options.meb_shared_slots = args.shared_slots;
    const auto registry = mte::netlist::FunctionRegistry::with_defaults();
    Elaboration e(nl, registry, mte::netlist::ComponentFactory::defaults(),
                  options);
    mte::sim::Simulator& sim = e.simulator();

    drive_sources(nl, e, args.seed);

    mte::obs::PhaseProfiler profiler(args.stride);
    sim.set_profiler(&profiler);

    mte::sim::ProtocolMonitor monitor;
    if (args.monitors) {
      e.attach_monitor(monitor);
      if (args.watchdog > 0) sim.set_watchdog(args.watchdog);
    }

    mte::obs::TraceSession trace(
        mte::obs::TraceSession::Options{args.trace_limit});
    const std::vector<mte::sim::ChannelRow>& rows = e.channel_rows();
    if (!args.trace_path.empty()) {
      sim.set_trace(&trace);
      // Transfer overlay: an observer reads each channel's settled
      // handshake once per cycle. Observers run outside eval, so the
      // event kernel's sensitivity discovery never sees these reads —
      // tracing cannot perturb scheduling.
      sim.on_cycle([&](mte::sim::Cycle c) {
        for (const mte::sim::ChannelRow& row : rows) {
          for (std::size_t t = 0; t < row.threads(); ++t) {
            if (row.valid[t].get() && row.ready[t].get()) {
              trace.add_transfer(c, row.name, static_cast<int>(t), row.data->get());
            }
          }
        }
      });
    }

    std::optional<mte::sim::VcdWriter> vcd;
    if (!args.vcd_path.empty()) {
      vcd.emplace(sim, "netlist");
      for (const mte::sim::ChannelRow& row : rows) {
        // Multithreaded signals carry the thread index: "ch.valid2".
        for (std::size_t t = 0; t < row.threads(); ++t) {
          const std::string thread = row.multithreaded() ? std::to_string(t) : "";
          const mte::sim::Wire<bool>& valid = row.valid[t];
          const mte::sim::Wire<bool>& ready = row.ready[t];
          vcd->add_signal(row.name + ".valid" + thread, 1,
                          [&valid] { return valid.get() ? 1u : 0u; });
          vcd->add_signal(row.name + ".ready" + thread, 1,
                          [&ready] { return ready.get() ? 1u : 0u; });
        }
        vcd->add_signal(row.name + ".data", 64, [&data = *row.data] { return data.get(); });
      }
    }

    bool watchdog_fired = false;
    try {
      sim.run(args.cycles);
    } catch (const mte::sim::WatchdogError& ex) {
      watchdog_fired = true;
      std::cerr << "mte_prof: " << ex.what() << '\n';
    }

    // A snapshot (and the profile report inside it) costs time linear in
    // the design: take one only when it is written or printed.
    const auto mask = args.all_categories ? mte::obs::kAllCategories
                                          : mte::obs::kStableCategories;
    const bool want_snapshot = !args.metrics_path.empty() || !args.quiet;
    const auto snap = want_snapshot ? sim.metrics().snapshot(mask)
                                    : mte::obs::MetricsSnapshot({});
    if (!args.metrics_path.empty()) {
      const bool csv = args.metrics_path.size() >= 4 &&
                       args.metrics_path.compare(args.metrics_path.size() - 4,
                                                 4, ".csv") == 0;
      std::ofstream os(args.metrics_path, std::ios::binary);
      if (!os) {
        std::cerr << "mte_prof: cannot write '" << args.metrics_path << "'\n";
        return 2;
      }
      os << (csv ? snap.to_csv() : snap.to_json());
    }

    if (!args.trace_path.empty() && !trace.write_file(args.trace_path)) {
      std::cerr << "mte_prof: cannot write '" << args.trace_path << "'\n";
      return 2;
    }

    if (vcd && !vcd->write(args.vcd_path)) {
      std::cerr << "mte_prof: cannot write '" << args.vcd_path << "'\n";
      return 2;
    }

    if (!args.quiet) {
      std::cout << args.netlist_path << ": " << args.cycles << " cycles, "
                << to_string(sim.kernel()) << " kernel, "
                << sim.component_count() << " components\n\n";
      std::cout << "== profile (per component type, most expensive first)\n"
                << profiler.report(sim.components(), args.top).to_table()
                << '\n';
      std::cout << "== channels\n" << e.stats_report() << '\n';
      std::cout << "== metrics\n" << snap.to_table();
      if (!args.trace_path.empty()) {
        std::cout << "\ntrace: " << trace.event_count() << " events ("
                  << trace.dropped_events() << " dropped) -> "
                  << args.trace_path << "\n";
      }
    }
    if (args.monitors && !monitor.violations().empty()) {
      std::cerr << "mte_prof: " << monitor.violations().size()
                << " protocol violation(s):\n"
                << monitor.report();
    }
    // Detach before the profiler/trace/monitor go out of scope (defensive;
    // the simulator dies with the Elaboration right after anyway).
    sim.set_profiler(nullptr);
    sim.set_trace(nullptr);
    sim.set_monitor(nullptr);
    if (watchdog_fired || (args.monitors && !monitor.violations().empty())) {
      return 3;
    }
  } catch (const std::exception& ex) {
    std::cerr << "mte_prof: " << ex.what() << '\n';
    return 2;
  }
  return 0;
}
