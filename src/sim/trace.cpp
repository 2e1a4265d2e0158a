#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>

namespace mte::sim {

void Timeline::declare_row(const std::string& row) {
  if (std::find(row_order_.begin(), row_order_.end(), row) == row_order_.end()) {
    row_order_.push_back(row);
  }
}

void Timeline::put(const std::string& row, Cycle cycle, std::string label) {
  declare_row(row);
  cells_[row][cycle] = std::move(label);
  max_cycle_ = std::max(max_cycle_, cycle);
  any_ = true;
}

std::string Timeline::render(Cycle first, Cycle last) const {
  // Column width: widest label, at least 3 (two chars + separator space).
  std::size_t cell_w = 2;
  for (const auto& [row, by_cycle] : cells_) {
    for (const auto& [cycle, label] : by_cycle) {
      if (cycle >= first && cycle <= last) cell_w = std::max(cell_w, label.size());
    }
  }
  std::size_t row_w = 8;
  for (const auto& row : row_order_) row_w = std::max(row_w, row.size());

  std::ostringstream os;
  os << std::string(row_w, ' ') << " |";
  for (Cycle c = first; c <= last; ++c) {
    std::string hdr = std::to_string(c);
    if (hdr.size() < cell_w) hdr = std::string(cell_w - hdr.size(), ' ') + hdr;
    os << ' ' << hdr;
  }
  os << '\n';
  os << std::string(row_w, '-') << "-+" << std::string((cell_w + 1) * (last - first + 1), '-')
     << '\n';
  for (const auto& row : row_order_) {
    std::string padded = row + std::string(row_w - row.size(), ' ');
    os << padded << " |";
    const auto it = cells_.find(row);
    for (Cycle c = first; c <= last; ++c) {
      std::string_view label = ".";
      if (it != cells_.end()) {
        const auto jt = it->second.find(c);
        if (jt != it->second.end() && !jt->second.empty()) label = jt->second;
      }
      os << ' ' << std::setw(static_cast<int>(cell_w)) << label;
    }
    os << '\n';
  }
  return os.str();
}

std::string Timeline::render() const {
  if (!any_) return "(empty timeline)\n";
  return render(0, max_cycle_);
}

}  // namespace mte::sim
