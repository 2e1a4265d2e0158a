#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::set_end_to_end(std::vector<double> setup_s, std::vector<double> wall_s,
                               std::vector<double> work_per_s) {
  metrics["setup_s"] = median(setup_s);
  metrics["wall_s"] = median(wall_s);
  metrics["work_per_s"] = median(work_per_s);
  metrics["peak_rss_mb"] = peak_rss_mb();
  samples = {{"setup_s", std::move(setup_s)},
             {"wall_s", std::move(wall_s)},
             {"work_per_s", std::move(work_per_s)}};
}

void check_digest(std::uint64_t digest, const std::string& expected, Failures& fails) {
  if (hex64(digest) != expected) {
    fails.push_back("output digest " + hex64(digest) + " != expected " + expected);
  }
}

void RunResult::record(const Failures& job_failures) {
  ++attempted;
  if (job_failures.empty()) return;
  ++failed;
  for (const auto& f : job_failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

}  // namespace perfbench
