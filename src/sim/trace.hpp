// Textual timeline rendering.
//
// Benchmarks fill a Timeline from per-cycle observers (Simulator::on_cycle)
// that read settled channel wires, and print cycle-by-cycle flow diagrams
// like the paper's Fig. 1 and Fig. 5. Completed transfers reach the Chrome
// trace through obs::TraceSession::add_transfer instead.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace mte::sim {

/// A column-aligned text timeline: rows are named resources (channels,
/// buffer slots), columns are cycles, cells are short labels such as "A3".
class Timeline {
 public:
  /// Sets the cell for (row, cycle). Later writes overwrite earlier ones.
  void put(const std::string& row, Cycle cycle, std::string label);

  /// Appends a row to the display order if not already present.
  void declare_row(const std::string& row);

  /// Renders the timeline for cycles [first, last].
  [[nodiscard]] std::string render(Cycle first, Cycle last) const;

  /// Renders the full recorded span.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> row_order_;
  std::map<std::string, std::map<Cycle, std::string>> cells_;
  Cycle max_cycle_ = 0;
  bool any_ = false;
};

}  // namespace mte::sim
