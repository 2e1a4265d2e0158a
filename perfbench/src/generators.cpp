#include "generators.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, 5> kFunctions = {"id", "inc", "dec", "double", "square"};

/// Rate 0.01 * [lo, lo + span], printed with two decimals so the text,
/// not a binary double, carries the value.
std::string rate_text(std::uint64_t& rng, unsigned lo, unsigned span) {
  const unsigned hundredths = lo + static_cast<unsigned>(splitmix64(rng) % (span + 1));
  char buf[32];
  std::snprintf(buf, sizeof buf, "rate=%u.%02u", hundredths / 100, hundredths % 100);
  return buf;
}

/// source -> (buffer, function)^stages -> [buffer] -> sink, named with
/// `prefix`; nodes first, then the connects that use them.
void emit_pipeline(std::ostringstream& os, std::uint64_t& rng, const std::string& prefix,
                   std::size_t stages, const std::string& src_rate,
                   const std::string& sink_rate, bool trailing_buffer) {
  os << "source " << prefix << "src " << src_rate << '\n';
  for (std::size_t j = 0; j < stages; ++j) {
    os << "buffer " << prefix << 'b' << j << '\n';
    os << "function " << prefix << 'f' << j << ' '
       << kFunctions[splitmix64(rng) % kFunctions.size()] << '\n';
  }
  if (trailing_buffer) os << "buffer " << prefix << "bout\n";
  os << "sink " << prefix << "snk " << sink_rate << '\n';

  std::string prev = prefix + "src";
  for (std::size_t j = 0; j < stages; ++j) {
    const std::string b = prefix + 'b' + std::to_string(j);
    const std::string f = prefix + 'f' + std::to_string(j);
    os << "connect " << prev << ":0 -> " << b << ":0\n";
    os << "connect " << b << ":0 -> " << f << ":0\n";
    prev = f;
  }
  if (trailing_buffer) {
    os << "connect " << prev << ":0 -> " << prefix << "bout:0\n";
    prev = prefix + "bout";
  }
  os << "connect " << prev << ":0 -> " << prefix << "snk:0\n";
}

}  // namespace

std::string tiles_enl(std::uint64_t seed, const TilesShape& shape) {
  std::uint64_t rng = seed ^ 0x7469'6c65'7321'0000ULL;  // "tiles!"
  std::vector<int> kinds(shape.tiles);
  for (std::size_t t = 0; t < shape.tiles; ++t) kinds[t] = static_cast<int>(t % 3);
  for (std::size_t t = shape.tiles; t > 1; --t) {  // Fisher-Yates, seeded
    std::swap(kinds[t - 1], kinds[splitmix64(rng) % t]);
  }

  std::ostringstream os;
  os << "# perfbench tiles: " << shape.tiles << " tiles x " << shape.stages
     << " stages, seed " << seed << '\n'
     << "threads " << kThreads << " full\n";
  for (std::size_t t = 0; t < shape.tiles; ++t) {
    const std::string src_rate = kinds[t] == 2 ? "rate=0.20" : "rate=1.00";   // starved
    const std::string sink_rate = kinds[t] == 1 ? "rate=0.30" : "rate=1.00";  // backpressured
    emit_pipeline(os, rng, 't' + std::to_string(t) + '_', shape.stages, src_rate,
                  sink_rate, false);
  }
  return os.str();
}

std::string chain_enl(std::uint64_t seed, std::size_t stages) {
  std::uint64_t rng = seed ^ 0x6368'6169'6e21'0000ULL;  // "chain!"
  std::ostringstream os;
  os << "# perfbench chain: " << stages << " stages, seed " << seed << '\n'
     << "threads " << kThreads << " full\n";
  const std::string src_rate = rate_text(rng, 50, 50);
  const std::string sink_rate = rate_text(rng, 50, 50);
  emit_pipeline(os, rng, "", stages, src_rate, sink_rate, true);
  return os.str();
}

}  // namespace perfbench
