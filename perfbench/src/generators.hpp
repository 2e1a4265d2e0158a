// Seeded netlist generators. Each emits .enl text, so the benchmark
// measures parsing as part of every run; the same seed always gives the
// same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Threads per generated netlist (the paper's S).
inline constexpr std::size_t kThreads = 4;

/// Independent source -> (buffer, function)^stages -> sink tiles. Tile
/// kinds come in equal thirds: saturated (both endpoints at rate 1),
/// backpressured (sink rate 0.3) and starved (source rate 0.2). The seed
/// places the kinds and picks each stage's function; shape, kind mix and
/// rates do not depend on it, so every seed asks for about the same work.
struct TilesShape {
  std::size_t tiles = 24;
  std::size_t stages = 200;

  /// Netlist nodes: per tile a source, a sink and two nodes per stage.
  [[nodiscard]] std::size_t nodes() const noexcept { return tiles * (2 * stages + 2); }
};

[[nodiscard]] std::string tiles_enl(std::uint64_t seed, const TilesShape& shape);

/// One source -> (buffer, function)^stages -> buffer -> sink chain: a
/// single strongly connected marked graph for the static perf pass.
[[nodiscard]] std::string chain_enl(std::uint64_t seed, std::size_t stages);

}  // namespace perfbench
