#include "sim/fault_injector.hpp"

#include <string>

namespace mte::sim {

namespace {

/// splitmix64: the same stateless mixer the DSE layer uses for per-point
/// seeds — deterministic corrupt masks with no shared RNG stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kStuckValid: return "stuck-valid";
    case FaultKind::kDropValid: return "drop-valid";
    case FaultKind::kDropReady: return "drop-ready";
    case FaultKind::kCorruptData: return "corrupt-data";
    case FaultKind::kDuplicate: return "duplicate";
  }
  return "unknown";
}

void FaultInjector::bind(const ChannelRow& row) { bindings_[row.name] = &row; }

bool FaultInjector::apply(Cycle now) {
  bool wrote = false;
  for (std::size_t fi = 0; fi < plan_.size(); ++fi) {
    const Fault& f = plan_[fi];
    if (now < f.from || now >= f.to) continue;
    const auto it = bindings_.find(f.channel);
    if (it == bindings_.end()) {
      throw SimulationError(std::string("FaultInjector: fault '") +
                            to_string(f.kind) + "' targets unbound channel '" +
                            f.channel + "'");
    }
    const ChannelRow& row = *it->second;
    // A single-thread channel has one handshake pair and ignores `thread`.
    const std::size_t t = row.multithreaded() ? f.thread : 0;
    if (t >= row.threads()) {
      throw SimulationError(std::string("FaultInjector: fault '") +
                            to_string(f.kind) + "' targets thread " +
                            std::to_string(t) + " of channel '" + f.channel +
                            "', which has " + std::to_string(row.threads()) +
                            " thread(s)");
    }
    switch (f.kind) {
      case FaultKind::kStuckValid:
      case FaultKind::kDuplicate:
        row.valid[t].set(true);
        break;
      case FaultKind::kDropValid:
        row.valid[t].set(false);
        break;
      case FaultKind::kDropReady:
        row.ready[t].set(false);
        break;
      case FaultKind::kCorruptData: {
        const std::uint64_t mask = mix64(seed_ ^ mix64(now) ^ fi) | 1;
        row.data->set(row.data->get() ^ mask);
        break;
      }
    }
    ++injected_;
    wrote = true;
  }
  return wrote;
}

}  // namespace mte::sim
