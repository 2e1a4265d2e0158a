// Strongly connected components for the analysis passes (internal header,
// shared by the structural analyzer and the static perf pass).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace mte::analysis::detail {

/// Iterative Tarjan over an adjacency list of arcs; `head(arc)` names the
/// vertex an arc points to. Returns the SCC id of every vertex. Ids count
/// up in the order SCCs complete, which is a reverse topological order of
/// the condensation: every arc leaving an SCC points to a lower id.
template <typename Arc, typename Head>
[[nodiscard]] std::vector<std::size_t> scc_ids(const std::vector<std::vector<Arc>>& adj,
                                               Head head) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = adj.size();
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<std::size_t> scc(n, kNone);  // visited and kNone: on the stack
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;
  std::size_t next_scc = 0;

  struct Frame {
    std::size_t v;
    std::size_t child = 0;
  };
  std::vector<Frame> frames;
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.v;
      if (f.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
      } else {
        // Returning from the previous child.
        const std::size_t w = head(adj[v][f.child - 1]);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      }
      bool descended = false;
      while (f.child < adj[v].size()) {
        const std::size_t w = head(adj[v][f.child++]);
        if (index[w] == kNone) {
          frames.push_back({w});
          descended = true;
          break;
        }
        if (scc[w] == kNone) lowlink[v] = std::min(lowlink[v], index[w]);
      }
      if (descended) continue;
      if (lowlink[v] == index[v]) {
        std::size_t w = kNone;
        do {
          w = stack.back();
          stack.pop_back();
          scc[w] = next_scc;
        } while (w != v);
        ++next_scc;
      }
      frames.pop_back();
    }
  }
  return scc;
}

}  // namespace mte::analysis::detail
