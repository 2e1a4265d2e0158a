// Karp's minimum cycle mean: the test-only oracle for Howard's policy
// iteration and its optimality certificate (analysis/perf.hpp). It fills
// a dense (n+1) x n table, so it belongs on small synthetic graphs; the
// library certifies Howard's result in linear time instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "analysis/perf.hpp"

namespace mte::analysis::testing {

/// Minimum cycle mean of `g` (tokens per unit-delay hop); +inf when the
/// graph is acyclic. d[k][v] is the lightest k-arc walk ending at v from
/// any start: Karp's recurrence from a virtual source with a zero arc to
/// every vertex, so one table covers every strongly connected component.
/// The mean is min over v of max over k < n of (d[n][v] - d[k][v]) / (n - k).
inline double karp_min_cycle_mean(const MarkedGraph& g) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.adj.size();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(n, kInf));
  std::fill(d[0].begin(), d[0].end(), 0.0);
  for (std::size_t k = 1; k <= n; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      if (d[k - 1][u] == kInf) continue;
      for (const PerfArc& a : g.adj[u]) {
        d[k][a.to] = std::min(d[k][a.to], d[k - 1][u] + static_cast<double>(a.tokens));
      }
    }
  }
  double best = kInf;
  for (std::size_t v = 0; v < n; ++v) {
    if (d[n][v] == kInf) continue;
    double worst = -kInf;
    for (std::size_t k = 0; k < n; ++k) {
      if (d[k][v] == kInf) continue;
      worst = std::max(worst, (d[n][v] - d[k][v]) / static_cast<double>(n - k));
    }
    best = std::min(best, worst);
  }
  return best;
}

}  // namespace mte::analysis::testing
