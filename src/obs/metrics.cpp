#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/json_escape.hpp"

namespace mte::obs {
namespace {

// Fixed-format renderers: %.6f for gauges, plain integers for counters.
// Both renderers and the sort below are what make snapshot output
// byte-comparable across runs.
std::string format_gauge(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string format_counter(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string MetricRow::value_text() const {
  return is_counter ? format_counter(count) : format_gauge(value);
}

void MetricsSink::counter(std::string name, std::uint64_t value,
                          MetricCategory category) {
  if (!wants(category)) return;
  MetricRow row;
  row.name = std::move(name);
  row.category = category;
  row.is_counter = true;
  row.count = value;
  row.value = static_cast<double>(value);
  rows_.push_back(std::move(row));
}

void MetricsSink::gauge(std::string name, double value,
                        MetricCategory category) {
  if (!wants(category)) return;
  MetricRow row;
  row.name = std::move(name);
  row.category = category;
  row.is_counter = false;
  row.value = value;
  rows_.push_back(std::move(row));
}

MetricsSnapshot::MetricsSnapshot(std::vector<MetricRow> rows)
    : rows_(std::move(rows)) {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [](const MetricRow& a, const MetricRow& b) {
                     return a.name < b.name;
                   });
}

const MetricRow* MetricsSnapshot::find(std::string_view name) const noexcept {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), name,
                             [](const MetricRow& r, std::string_view n) {
                               return r.name < n;
                             });
  if (it == rows_.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::count(std::string_view name) const noexcept {
  const MetricRow* row = find(name);
  return row != nullptr ? row->count : 0;
}

double MetricsSnapshot::value(std::string_view name) const noexcept {
  const MetricRow* row = find(name);
  return row != nullptr ? row->value : 0.0;
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "name,category,value\n";
  for (const MetricRow& row : rows_) {
    out += row.name;
    out += ',';
    out += to_string(row.category);
    out += ',';
    out += row.value_text();
    out += '\n';
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricRow& row : rows_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, row.name);
    out += "\",\"category\":\"";
    out += to_string(row.category);
    out += "\",\"value\":";
    out += row.value_text();
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string MetricsSnapshot::to_table() const {
  std::size_t name_width = 6;  // "metric"
  for (const MetricRow& row : rows_) {
    name_width = std::max(name_width, row.name.size());
  }
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-*s  %-8s  %s\n",
                static_cast<int>(name_width), "metric", "category", "value");
  out += line;
  for (const MetricRow& row : rows_) {
    std::snprintf(line, sizeof(line), "%-*s  %-8s  %s\n",
                  static_cast<int>(name_width), row.name.c_str(),
                  to_string(row.category), row.value_text().c_str());
    out += line;
  }
  return out;
}

void MetricsRegistry::add_source(Source source) { sources_.push_back(std::move(source)); }

MetricsSnapshot MetricsRegistry::snapshot(CategoryMask mask) const {
  std::vector<MetricRow> rows;
  MetricsSink sink(rows, mask);
  for (const Source& source : sources_) source(sink);
  return MetricsSnapshot(std::move(rows));
}

}  // namespace mte::obs
