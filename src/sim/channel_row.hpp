// ChannelRow: one channel of an elaborated design, as every channel
// observer reads it. A multithreaded channel is S valid/ready pairs that
// share one data word (paper Sec. III); a single-thread channel is the
// S = 1 case. netlist::Elaboration fills one row per channel (its channel
// table); the protocol monitor, the fault injector, the channel probes,
// mte_prof's trace overlay and VCD, and the lockstep equivalence harness
// all read rows instead of branching on the elaboration mode. Rows point
// into the elaborated design and live as long as the Elaboration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sim/wire.hpp"

namespace mte::mt {
class ThreadMask;
}  // namespace mte::mt

namespace mte::sim {

struct ChannelRow {
  std::string name;           ///< "node:port" of the driving endpoint
  std::string producer;       ///< driving node
  std::string producer_port;  ///< "out<k>"
  std::string consumer;       ///< consuming node

  /// Valid drops only by a completed transfer (the producer is an elastic
  /// buffer): the monitor checks MTE101.
  bool persistent_valid = false;
  /// Ready drops only by accepting (the consumer is an elastic buffer or a
  /// full MEB): the monitor checks MTE103.
  bool persistent_ready = false;

  std::span<Wire<bool>> valid;  ///< one wire per thread
  std::span<Wire<bool>> ready;  ///< one wire per thread
  Wire<std::uint64_t>* data = nullptr;

  /// mt::MtChannel::valid_mask (commit-phase only); null on a
  /// single-thread channel.
  const mt::ThreadMask* valid_mask = nullptr;

  [[nodiscard]] std::size_t threads() const noexcept { return valid.size(); }
  [[nodiscard]] bool multithreaded() const noexcept { return valid_mask != nullptr; }
};

}  // namespace mte::sim
