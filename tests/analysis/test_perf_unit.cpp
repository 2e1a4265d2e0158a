// Unit and property tests for the static performance analyzer's solver
// kernels and renderers:
//   * Howard's policy iteration agrees with Karp's algorithm (the
//     test-only oracle in karp_oracle.hpp) on the minimum cycle mean over
//     seeded random marked graphs (multi-SCC, rate-capped token counts),
//     and the optimality certificate analyze_perf() runs on every netlist
//     (MTE054) accepts each of Howard's results;
//   * the certificate rejects wrong results, one test per check it makes:
//     lowered ratios, a policy switched to a worse arc, a self-consistent
//     but suboptimal policy, a misreported or shortened critical cycle,
//     a finite ratio on an acyclic graph and an infinite one on a cycle;
//   * windowed_bound() folds candidates and fill latency exactly;
//   * json_escape() neutralizes hostile diagnostic messages end to end
//     through the JSON renderer;
//   * render_sarif() keeps the SARIF 2.1.0 shape the code-scanning
//     upload expects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/diagnostic.hpp"
#include "analysis/perf.hpp"
#include "karp_oracle.hpp"

namespace {

using namespace mte;
using analysis::MarkedGraph;
using analysis::PerfArc;
using analysis::certify_min_cycle_mean;
using analysis::testing::karp_min_cycle_mean;

/// A random marked graph of `n` vertices: every vertex gets a self-loop
/// (tokens 1..cap, mirroring the netlist model where every acceptance
/// event recurs) plus 0..3 random out-arcs (tokens 0..cap), so the graph
/// decomposes into several SCCs with cross edges.
MarkedGraph random_graph(std::mt19937_64& rng, std::size_t n, std::size_t cap) {
  MarkedGraph g;
  g.adj.resize(n);
  std::uniform_int_distribution<std::size_t> vertex(0, n - 1);
  std::uniform_int_distribution<std::size_t> fanout(0, 3);
  std::uniform_int_distribution<std::size_t> loop_tokens(1, cap);
  std::uniform_int_distribution<std::size_t> arc_tokens(0, cap);
  for (std::size_t v = 0; v < n; ++v) {
    g.adj[v].push_back({v, loop_tokens(rng)});
    const std::size_t extra = fanout(rng);
    for (std::size_t k = 0; k < extra; ++k) {
      g.adj[v].push_back({vertex(rng), arc_tokens(rng)});
    }
  }
  return g;
}

TEST(PerfSolvers, HowardMatchesKarpOnRandomGraphs) {
  std::mt19937_64 rng(20260808u);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 23);
    const std::size_t cap = 1 + static_cast<std::size_t>(trial % 5);
    const MarkedGraph g = random_graph(rng, n, cap);

    const auto howard = analysis::howard_min_cycle_mean(g);
    ASSERT_TRUE(howard.converged);
    const double karp = karp_min_cycle_mean(g);
    ASSERT_TRUE(std::isfinite(howard.ratio));  // self-loops force a cycle
    EXPECT_NEAR(howard.ratio, karp, 1e-9);
    EXPECT_TRUE(certify_min_cycle_mean(g, howard));

    // The reported critical cycle must reproduce the reported ratio.
    ASSERT_FALSE(howard.cycle.empty());
    ASSERT_GT(howard.cycle_hops, 0u);
    EXPECT_NEAR(static_cast<double>(howard.cycle_tokens) /
                    static_cast<double>(howard.cycle_hops),
                howard.ratio, 1e-9);
  }
}

TEST(PerfSolvers, AcyclicGraphIsInfinite) {
  // A pure chain (no self-loops) has no cycle: both solvers say +inf.
  MarkedGraph g;
  g.adj.resize(3);
  g.adj[0].push_back({1, 1});
  g.adj[1].push_back({2, 0});
  const auto howard = analysis::howard_min_cycle_mean(g);
  ASSERT_TRUE(howard.converged);
  EXPECT_TRUE(std::isinf(howard.ratio));
  EXPECT_TRUE(std::isinf(karp_min_cycle_mean(g)));
  EXPECT_TRUE(howard.cycle.empty());
  EXPECT_TRUE(certify_min_cycle_mean(g, howard));
}

TEST(PerfSolvers, TwoVertexRingHasMeanHalf) {
  // One token circulating over two unit-delay hops: 0.5 tokens/cycle.
  MarkedGraph g;
  g.adj.resize(2);
  g.adj[0].push_back({0, 1});
  g.adj[1].push_back({1, 1});
  g.adj[0].push_back({1, 1});
  g.adj[1].push_back({0, 0});
  const auto howard = analysis::howard_min_cycle_mean(g);
  ASSERT_TRUE(howard.converged);
  EXPECT_NEAR(howard.ratio, 0.5, 1e-12);
  EXPECT_NEAR(karp_min_cycle_mean(g), 0.5, 1e-12);
  EXPECT_EQ(howard.cycle_tokens, 1u);
  EXPECT_EQ(howard.cycle_hops, 2u);
  EXPECT_TRUE(certify_min_cycle_mean(g, howard));
}

/// Runs `check` on Howard's result for each graph of the seeded corpus.
template <class Check>
void for_each_random_result(Check&& check) {
  std::mt19937_64 rng(20260917u);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 23);
    const std::size_t cap = 1 + static_cast<std::size_t>(trial % 5);
    const MarkedGraph g = random_graph(rng, n, cap);
    const auto howard = analysis::howard_min_cycle_mean(g);
    ASSERT_TRUE(howard.converged);
    ASSERT_TRUE(certify_min_cycle_mean(g, howard));
    check(g, howard);
  }
}

TEST(PerfCertificate, RejectsLoweredRatios) {
  for_each_random_result([](const MarkedGraph& g, analysis::CycleMeanResult r) {
    for (double& ratio : r.vertex_ratio) ratio -= 0.25;
    r.ratio -= 0.25;
    EXPECT_FALSE(certify_min_cycle_mean(g, r));
  });
}

TEST(PerfCertificate, RejectsPolicySwitchedToWorseArc) {
  // Every alternative arc of every vertex: an arc into a strictly higher
  // ratio can never be certified, and across the corpus some switch must
  // be caught (arcs into equal ratios may legitimately pass).
  std::size_t rejected = 0;
  for_each_random_result([&](const MarkedGraph& g, const analysis::CycleMeanResult& r) {
    for (std::size_t v = 0; v < g.adj.size(); ++v) {
      for (std::size_t a = 0; a < g.adj[v].size(); ++a) {
        if (a == r.policy[v]) continue;
        analysis::CycleMeanResult switched = r;
        switched.policy[v] = a;
        const bool accepted = certify_min_cycle_mean(g, switched);
        if (!accepted) ++rejected;
        if (r.vertex_ratio[g.adj[v][a].to] > r.vertex_ratio[v] + 1e-12) {
          EXPECT_FALSE(accepted) << "vertex " << v << " arc " << a;
        }
      }
    }
  });
  EXPECT_GT(rejected, 0u);
}

TEST(PerfCertificate, RejectsSelfConsistentSuboptimalPolicy) {
  // Every vertex keeps its self-loop (arc 0 of random_graph): the claimed
  // ratios, critical cycle and counts all match that policy's own walk,
  // so only the arc inequalities can show that a vertex reaches a cheaper
  // cycle. Unit-token loops put every vertex of an SCC at ratio 1, which
  // leaves a cheaper cycle inside the SCC to the reduced-cost check alone.
  std::size_t suboptimal_cases = 0;
  for_each_random_result([&](const MarkedGraph& g, const analysis::CycleMeanResult& r) {
    analysis::CycleMeanResult loops = r;
    loops.cycle = {0};
    for (std::size_t v = 0; v < g.adj.size(); ++v) {
      loops.policy[v] = 0;
      loops.vertex_ratio[v] = static_cast<double>(g.adj[v][0].tokens);
      if (g.adj[v][0].tokens < g.adj[loops.cycle[0]][0].tokens) loops.cycle = {v};
    }
    loops.cycle_tokens = g.adj[loops.cycle[0]][0].tokens;
    loops.cycle_hops = 1;
    loops.ratio = static_cast<double>(loops.cycle_tokens);
    bool suboptimal = false;
    for (std::size_t v = 0; v < g.adj.size(); ++v) {
      suboptimal = suboptimal || loops.vertex_ratio[v] > r.vertex_ratio[v] + 1e-12;
    }
    if (!suboptimal) return;
    EXPECT_FALSE(certify_min_cycle_mean(g, loops));
    ++suboptimal_cases;
  });
  EXPECT_GT(suboptimal_cases, 0u);
}

TEST(PerfCertificate, RejectsCriticalCycleWithVertexDropped) {
  // The dropped vertex's arc weight leaves the totals too, so only the
  // broken chain of policy arcs gives the tampering away.
  for_each_random_result([](const MarkedGraph& g, analysis::CycleMeanResult r) {
    const std::size_t drop = r.cycle.size() / 2;
    r.cycle_tokens -= g.adj[r.cycle[drop]][r.policy[r.cycle[drop]]].tokens;
    r.cycle_hops -= 1;
    r.cycle.erase(r.cycle.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(certify_min_cycle_mean(g, r));
  });
}

TEST(PerfCertificate, RejectsMisreportedCriticalCycle) {
  // Right length, tokens and ratio, but no chain of policy arcs (the
  // anchor repeated); and a real policy cycle that is not the minimum.
  std::size_t broken = 0;
  std::size_t higher = 0;
  for_each_random_result([&](const MarkedGraph& g, const analysis::CycleMeanResult& r) {
    if (r.cycle.size() >= 2) {
      analysis::CycleMeanResult repeated = r;
      std::fill(repeated.cycle.begin(), repeated.cycle.end(), r.cycle.front());
      EXPECT_FALSE(certify_min_cycle_mean(g, repeated));
      ++broken;
    }
    for (std::size_t v = 0; v < g.adj.size(); ++v) {
      if (r.vertex_ratio[v] <= r.ratio + 1e-12) continue;
      // Follow v's policy onto the cycle it ends in.
      std::vector<char> seen(g.adj.size(), 0);
      std::size_t u = v;
      while (seen[u] == 0) {
        seen[u] = 1;
        u = g.adj[u][r.policy[u]].to;
      }
      analysis::CycleMeanResult other = r;
      other.cycle.clear();
      other.cycle_tokens = 0;
      std::size_t x = u;
      do {
        other.cycle.push_back(x);
        other.cycle_tokens += g.adj[x][r.policy[x]].tokens;
        x = g.adj[x][r.policy[x]].to;
      } while (x != u);
      other.cycle_hops = other.cycle.size();
      other.ratio = r.vertex_ratio[v];
      EXPECT_FALSE(certify_min_cycle_mean(g, other));
      ++higher;
      break;
    }
  });
  EXPECT_GT(broken, 0u);
  EXPECT_GT(higher, 0u);
}

TEST(PerfCertificate, RejectsFiniteRatioOnAcyclicGraph) {
  MarkedGraph g;
  g.adj.resize(3);
  g.adj[0].push_back({1, 1});
  g.adj[1].push_back({2, 0});
  const auto howard = analysis::howard_min_cycle_mean(g);
  ASSERT_TRUE(certify_min_cycle_mean(g, howard));

  auto claimed = howard;
  claimed.vertex_ratio[0] = 1.0;
  EXPECT_FALSE(certify_min_cycle_mean(g, claimed));
  claimed = howard;
  claimed.ratio = 1.0;
  EXPECT_FALSE(certify_min_cycle_mean(g, claimed));
}

TEST(PerfCertificate, RejectsInfiniteRatioOnCycle) {
  // 0 <-> 1 is a cycle, but a policy that leaves it for the dead end 2
  // walks to no cycle anywhere: self-consistent, and still wrong.
  MarkedGraph g;
  g.adj.resize(3);
  g.adj[0].push_back({1, 1});
  g.adj[0].push_back({2, 0});
  g.adj[1].push_back({0, 1});
  const auto howard = analysis::howard_min_cycle_mean(g);
  ASSERT_TRUE(certify_min_cycle_mean(g, howard));
  ASSERT_EQ(howard.ratio, 1.0);

  auto escaped = howard;
  escaped.policy[0] = 1;
  escaped.vertex_ratio.assign(3, std::numeric_limits<double>::infinity());
  escaped.ratio = std::numeric_limits<double>::infinity();
  escaped.cycle.clear();
  escaped.cycle_tokens = 0;
  escaped.cycle_hops = 0;
  EXPECT_FALSE(certify_min_cycle_mean(g, escaped));
}

TEST(PerfWindow, FoldsFillLatencyAndCandidates) {
  analysis::PerfSinkBound sink;
  sink.theta = 1.0;
  sink.fill_latency = 2;
  sink.candidates = {{1, 1}};
  // Window of 2000 cycles with fill 2: at most 1998 tokens.
  EXPECT_NEAR(analysis::windowed_bound(sink, 2000), 1998.0 / 2000.0, 1e-12);

  // A (1 token, 2 hops) critical cycle: one token every other cycle.
  sink.candidates.push_back({1, 2});
  sink.theta = 0.5;
  sink.structural_ratio = 0.5;
  // W = 1998, count = floor((1998-1)/2)+1 = 999.
  EXPECT_NEAR(analysis::windowed_bound(sink, 2000), 999.0 / 2000.0, 1e-12);

  // Unreachable sinks and windows inside the fill latency bound to zero.
  analysis::PerfSinkBound unreachable;
  unreachable.reachable = false;
  EXPECT_EQ(analysis::windowed_bound(unreachable, 100), 0.0);
  sink.fill_latency = 50;
  EXPECT_EQ(analysis::windowed_bound(sink, 50), 0.0);
}

TEST(DiagnosticsJson, HostileMessagesStayValidJson) {
  // Control characters, quotes and backslashes in a diagnostic must come
  // out escaped — one line, no raw control bytes, quotes balanced.
  analysis::Diagnostic d;
  d.code = "MTE000";
  d.severity = analysis::Severity::kWarning;
  d.component = "evil\"node\\";
  d.port = "out\n0";
  d.message = std::string("broken\twires\r\n") + '\x01' + "bell:" + '\x07';
  d.hint = "fix \"it\"";
  const analysis::AnalysisReport report({d});
  const std::string json = report.render_json();

  for (const char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control byte 0x" << std::hex << static_cast<int>(c)
        << " leaked into the JSON";
  }
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("broken\\twires\\r\\n"), std::string::npos);
  EXPECT_NE(json.find("evil\\\"node\\\\"), std::string::npos);
  // Quote parity: every line must contain an even number of unescaped '"'
  // (a quote is escaped iff preceded by an ODD run of backslashes).
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    int quotes = 0;
    for (std::size_t i = start; i < end; ++i) {
      if (json[i] != '"') continue;
      std::size_t backslashes = 0;
      for (std::size_t j = i; j > start && json[j - 1] == '\\'; --j) ++backslashes;
      if (backslashes % 2 == 0) ++quotes;
    }
    EXPECT_EQ(quotes % 2, 0) << "unbalanced quotes in: "
                             << json.substr(start, end - start);
    start = end + 1;
  }
}

TEST(DiagnosticsSarif, ReportHasSarifShape) {
  analysis::Diagnostic err;
  err.code = "MTE004";
  err.severity = analysis::Severity::kError;
  err.component = "meb0";
  err.port = "out0";
  err.message = "two drivers";
  err.hint = "remove one";
  analysis::Diagnostic note;
  note.code = "MTE050";
  note.severity = analysis::Severity::kNote;
  note.message = "static throughput bound: 0.5 tokens/cycle aggregate";

  const std::string sarif = analysis::render_sarif(
      {{"a.enl", analysis::AnalysisReport({err})},
       {"b.enl", analysis::AnalysisReport({note})}});

  // Envelope.
  EXPECT_NE(sarif.find("\"$schema\": \"https://json.schemastore.org/"
                       "sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"mte_lint\""), std::string::npos);
  // Rules: both codes registered, sorted, deduplicated.
  EXPECT_NE(sarif.find("{\"id\": \"MTE004\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"MTE050\""), std::string::npos);
  EXPECT_LT(sarif.find("\"MTE004\""), sarif.find("\"MTE050\""));
  // Results: level mapping and the locus as a logicalLocation.
  EXPECT_NE(sarif.find("\"ruleId\": \"MTE004\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"a.enl/meb0:out0\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"b.enl/<netlist>\""),
            std::string::npos);
  EXPECT_NE(sarif.find("hint: remove one"), std::string::npos);
  // Determinism: a second render is byte-identical.
  EXPECT_EQ(sarif, analysis::render_sarif(
                       {{"a.enl", analysis::AnalysisReport({err})},
                        {"b.enl", analysis::AnalysisReport({note})}}));
}

}  // namespace
