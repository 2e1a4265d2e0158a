#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {
// Written only by TracerScope on the owning thread; read by Span on any
// thread, which compares the owner before using the tracer. The benchmark
// installs scopes only while no worker thread is running.
Tracer* g_installed = nullptr;
std::thread::id g_owner;
}  // namespace

TracerScope::TracerScope(Tracer& tracer) : previous_(g_installed), previous_owner_(g_owner) {
  g_installed = &tracer;
  g_owner = std::this_thread::get_id();
}

TracerScope::~TracerScope() {
  g_installed = previous_;
  g_owner = previous_owner_;
}

Tracer* Tracer::active() noexcept {
  if (g_installed == nullptr || g_owner != std::this_thread::get_id()) return nullptr;
  return g_installed;
}

void Tracer::begin(const char* name, const char* layer) {
  Record r;
  r.name = name;
  r.layer = layer;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_s = seconds_since(origin_);
  open_.push_back(static_cast<int>(records_.size()));
  records_.push_back(std::move(r));
}

void Tracer::end() {
  if (open_.empty()) return;
  Record& r = records_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  r.end_s = seconds_since(origin_);
  auto& [total, n] = by_name_[r.name];
  total += r.end_s - r.start_s;
  ++n;
}

double Tracer::total_s(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.first;
}

std::size_t Tracer::count(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.second;
}

std::map<std::string, double> Tracer::self_by_layer(std::size_t first) const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0) child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < records_.size(); ++i) {
    const auto& r = records_[i];
    out[r.layer] += (r.end_s - r.start_s) - child_s[i];
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", r.start_s * 1e6,
                  (r.end_s - r.start_s) * 1e6);
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name << "\",\"cat\":\""
       << r.layer << "\",\"ph\":\"X\"," << buf << ",\"pid\":1,\"tid\":1}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << chrome_json();
  return static_cast<bool>(out);
}

}  // namespace perfbench
