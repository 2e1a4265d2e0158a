#include "sim/fault_injector.hpp"

#include <string>

#include "sim/rng.hpp"

namespace mte::sim {

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
        // A stateless splitmix64 draw keyed on (seed, cycle, fault): a
        // deterministic mask with no shared RNG stream.
        const std::uint64_t mask =
            SplitMix64(seed_ ^ SplitMix64(now).next() ^ fi).next() | 1;
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
