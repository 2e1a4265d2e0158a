// Curated circuit list for the checkpoint/restore test suite: the same
// representative designs the kernel-equivalence tests exercise (fig1
// single-thread flows, fork/join diamonds, branch/merge routing,
// variable-latency units, fig5 MEB pipelines, MEB operator pipelines,
// multithreaded var-latency, reduced-MEB pool-size points), packaged as
// data so the snapshot differ and the save/restore lockstep tests can
// iterate over every one of them under both kernels.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "netlist/builder.hpp"

namespace mte::snaptest {

struct SnapshotCase {
  std::string name;
  netlist::Netlist net;
  /// Deterministic workload configuration; applied identically to every
  /// elaboration of the case (rates, generators and stall windows are
  /// configuration, not snapshot state).
  std::function<void(netlist::Elaboration&)> configure;
  /// When set, buffers elaborate to reduced MEBs with this many shared
  /// slots (ElaborationOptions::meb_shared_slots).
  std::optional<std::size_t> meb_shared_slots;
};

inline netlist::Netlist fig1_pipeline() {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >>
      b.buffer("b1") >> b.sink("out");
  return b.build();
}

inline netlist::Netlist fig5_pipeline(std::size_t threads, mt::MebKind kind) {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("meb0") >> b.buffer("meb1") >> b.sink("sink");
  b.then_multithreaded(threads, kind);
  return b.build();
}

inline netlist::Netlist meb_operator_pipeline(std::size_t threads, mt::MebKind kind) {
  netlist::CircuitBuilder b;
  auto stage = b.source("src") >> b.buffer("m0") >> b.function("fu0", "inc");
  for (int i = 1; i < 4; ++i) {
    stage = stage >> b.buffer("m" + std::to_string(i)) >>
            b.function("fu" + std::to_string(i), "double");
  }
  stage >> b.sink("sink");
  b.then_multithreaded(threads, kind);
  return b.build();
}

inline void fig5_workload(netlist::Elaboration& e) {
  auto& src = e.mt_source("src");
  auto& sink = e.mt_sink("sink");
  for (std::size_t t = 0; t < e.threads(); ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return 1000 * t + i; });
  }
  sink.add_stall_window(1, 4, 26);
}

inline void contended_workload(netlist::Elaboration& e) {
  auto& src = e.mt_source("src");
  auto& sink = e.mt_sink("sink");
  for (std::size_t t = 0; t < e.threads(); ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
    src.set_rate(t, 0.9, 17 + t);
    sink.set_rate(t, 0.7, 29 + t);
  }
}

inline std::vector<SnapshotCase> snapshot_cases() {
  std::vector<SnapshotCase> cases;

  cases.push_back({"fig1_full_rate", fig1_pipeline(),
                   [](netlist::Elaboration& e) {
                     e.source("src").set_generator([](std::uint64_t i) { return i; });
                   },
                   std::nullopt});

  cases.push_back({"fig1_backpressured", fig1_pipeline(),
                   [](netlist::Elaboration& e) {
                     e.source("src").set_generator([](std::uint64_t i) { return i; });
                     e.source("src").set_rate(0.8, 7);
                     e.sink("out").set_rate(0.6, 11);
                   },
                   std::nullopt});

  {
    netlist::CircuitBuilder b;
    b.source("src") >> b.fork("f", 2);
    b.node("f").out(0) >> b.buffer("ba") >> b.function("fa", "inc") >>
        b.join("j", 2).in(0);
    b.node("f").out(1) >> b.buffer("bb") >> b.buffer("bb2") >> b.node("j").in(1);
    b.node("j") >> b.buffer("bo") >> b.sink("out");
    cases.push_back({"fork_join_diamond", b.build(),
                     [](netlist::Elaboration& e) {
                       e.source("src").set_generator(
                           [](std::uint64_t i) { return i + 1; });
                       e.sink("out").set_rate(0.7, 3);
                     },
                     std::nullopt});
  }

  {
    netlist::CircuitBuilder b;
    b.source("src") >> b.branch("br", "even");
    b.node("br").when_true() >> b.buffer("bt") >> b.merge("mg", 2).in(0);
    b.node("br").when_false() >> b.buffer("bf") >> b.node("mg").in(1);
    b.node("mg") >> b.sink("out");
    cases.push_back({"branch_merge_routing", b.build(),
                     [](netlist::Elaboration& e) {
                       e.source("src").set_generator(
                           [](std::uint64_t i) { return 3 * i + 1; });
                     },
                     std::nullopt});
  }

  {
    netlist::CircuitBuilder b;
    b.source("src") >> b.buffer("b0") >> b.var_latency("vl", 1, 5) >>
        b.buffer("b1") >> b.sink("out");
    cases.push_back({"var_latency_st", b.build(),
                     [](netlist::Elaboration& e) {
                       e.source("src").set_generator([](std::uint64_t i) { return i; });
                       e.sink("out").set_rate(0.85, 5);
                     },
                     std::nullopt});
  }

  cases.push_back(
      {"fig5_full_meb", fig5_pipeline(2, mt::MebKind::kFull), fig5_workload,
       std::nullopt});
  cases.push_back(
      {"fig5_reduced_meb", fig5_pipeline(2, mt::MebKind::kReduced), fig5_workload,
       std::nullopt});
  cases.push_back({"meb_operator_pipeline_s4_full",
                   meb_operator_pipeline(4, mt::MebKind::kFull), contended_workload,
                   std::nullopt});
  cases.push_back({"meb_operator_pipeline_s4_reduced",
                   meb_operator_pipeline(4, mt::MebKind::kReduced),
                   contended_workload, std::nullopt});
  // Pool-size point: reduced MEBs with S=4 main slots + 2 dynamically
  // shared.
  cases.push_back({"meb_operator_pipeline_s4_hybrid2",
                   meb_operator_pipeline(4, mt::MebKind::kFull), contended_workload,
                   std::size_t{2}});

  {
    netlist::CircuitBuilder b;
    b.source("src") >> b.buffer("m0") >> b.var_latency("vl", 1, 4) >>
        b.buffer("m1") >> b.sink("sink");
    b.then_multithreaded(4, mt::MebKind::kFull);
    cases.push_back({"mt_var_latency", b.build(),
                     [](netlist::Elaboration& e) {
                       auto& src = e.mt_source("src");
                       for (std::size_t t = 0; t < e.threads(); ++t) {
                         src.set_generator(t,
                                           [t](std::uint64_t i) { return 7 * t + i; });
                       }
                       e.mt_sink("sink").set_rate(2, 0.5, 41);
                     },
                     std::nullopt});
  }

  return cases;
}

}  // namespace mte::snaptest
