// MebKind / AnyMeb: select between the full and the reduced
// multithreaded elastic buffer at construction time. Circuits that
// compare the designs (MD5, processor, benchmarks, the DSE engine) build
// their pipeline stages through this helper; the reduced MEB's pool size
// K is the DSE engine's capacity axis.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "mt/full_meb.hpp"
#include "mt/reduced_meb.hpp"

namespace mte::mt {

enum class MebKind { kFull, kReduced };

[[nodiscard]] constexpr const char* to_string(MebKind kind) noexcept {
  return kind == MebKind::kFull ? "full" : "reduced";
}

/// Non-owning handle to a full or reduced MEB created inside a Simulator.
template <typename T>
class AnyMeb {
 public:
  /// A full MEB (2S private slots), or a reduced MEB with S main registers
  /// and a pool of `shared_slots` shared ones (K = 1 is the paper's
  /// design; a full MEB ignores it).
  static AnyMeb create(sim::Simulator& s, const std::string& name,
                       MtChannel<T>& in, MtChannel<T>& out, MebKind kind,
                       std::unique_ptr<Arbiter> arbiter = nullptr,
                       std::size_t shared_slots = 1) {
    AnyMeb m;
    if (kind == MebKind::kFull) {
      m.full_ = &s.make<FullMeb<T>>(s, name, in, out, std::move(arbiter));
    } else {
      m.reduced_ =
          &s.make<ReducedMeb<T>>(s, name, in, out, std::move(arbiter), shared_slots);
    }
    return m;
  }

  [[nodiscard]] MebKind kind() const noexcept {
    return full_ != nullptr ? MebKind::kFull : MebKind::kReduced;
  }

  [[nodiscard]] int total_occupancy() const {
    return full_ != nullptr ? full_->total_occupancy() : reduced_->total_occupancy();
  }

  [[nodiscard]] FullMeb<T>* full() const noexcept { return full_; }
  [[nodiscard]] ReducedMeb<T>* reduced() const noexcept { return reduced_; }

 private:
  FullMeb<T>* full_ = nullptr;
  ReducedMeb<T>* reduced_ = nullptr;
};

}  // namespace mte::mt
