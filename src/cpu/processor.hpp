// The multithreaded pipelined elastic processor (paper Sec. V-B).
//
// A five-stage pipeline (IF, ID, EX, MEM, WB) in which *every pipeline
// register is a multithreaded elastic buffer* (full or reduced — the
// Table I knob). Each thread has a private program counter, register
// file and data memory; the pipeline stages (fetch engine, ALU, memory
// port) are shared, and each stage's MEB selects independently which
// thread to promote, exactly as the paper describes. Instruction fetch,
// the multiplier and the data memory are variable-latency units (the
// data-memory latency comes from a direct-mapped cache model).
//
// Threading discipline: one instruction in flight per thread (fine-
// grained barrel multithreading, as in the iDEA-style processors the
// paper builds on). This makes per-thread execution hazard-free by
// construction; with enough active threads the pipeline still fills
// every cycle, which is the utilization argument of the paper's Fig. 1.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/assembler.hpp"
#include "cpu/interp.hpp"
#include "cpu/isa.hpp"
#include "cpu/memory.hpp"
#include "mt/meb_variant.hpp"
#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mte::cpu {

/// The micro-op token flowing through the pipeline channels.
struct Uop {
  std::uint32_t pc = 0;
  std::uint32_t raw = 0;
  Instr instr;
  std::uint32_t a = 0;  ///< rs1 operand value
  std::uint32_t b = 0;  ///< rs2 operand value
  ExecResult ex;
  std::uint32_t value = 0;  ///< final writeback value

  friend bool operator==(const Uop&, const Uop&) = default;
};

struct ProcessorConfig;

}  // namespace mte::cpu

namespace mte::sim {

/// Field-wise snapshot codec (Instr/ExecResult carry padding, so a byte
/// copy would leak indeterminate bytes into the snapshot).
template <>
struct SnapshotTraits<cpu::Uop> {
  static void save(SnapshotWriter& w, const cpu::Uop& u) {
    w.write_u32(u.pc);
    w.write_u32(u.raw);
    w.write_u8(static_cast<std::uint8_t>(u.instr.op));
    w.write_u8(u.instr.rd);
    w.write_u8(u.instr.rs1);
    w.write_u8(u.instr.rs2);
    w.write_u32(static_cast<std::uint32_t>(u.instr.imm));
    w.write_u32(u.a);
    w.write_u32(u.b);
    w.write_u32(u.ex.value);
    w.write_u32(u.ex.next_pc);
    w.write_u32(u.ex.mem_addr);
    w.write_bool(u.ex.halt);
    w.write_u32(u.value);
  }
  static cpu::Uop load(SnapshotReader& r) {
    cpu::Uop u;
    u.pc = r.read_u32();
    u.raw = r.read_u32();
    u.instr.op = static_cast<cpu::Opcode>(r.read_u8());
    u.instr.rd = r.read_u8();
    u.instr.rs1 = r.read_u8();
    u.instr.rs2 = r.read_u8();
    u.instr.imm = static_cast<std::int32_t>(r.read_u32());
    u.a = r.read_u32();
    u.b = r.read_u32();
    u.ex.value = r.read_u32();
    u.ex.next_pc = r.read_u32();
    u.ex.mem_addr = r.read_u32();
    u.ex.halt = r.read_bool();
    u.value = r.read_u32();
    return u;
  }
};

}  // namespace mte::sim

namespace mte::cpu {

struct ProcessorConfig {
  std::size_t threads = 8;
  mt::MebKind meb_kind = mt::MebKind::kReduced;
  unsigned mul_latency = 3;
  unsigned imem_latency_lo = 1;  ///< uniform fetch latency range
  unsigned imem_latency_hi = 1;
  unsigned dmem_hit_latency = 1;
  unsigned dmem_miss_latency = 6;
  unsigned dcache_lines = 16;
  unsigned dcache_line_words = 4;
  std::size_t dmem_words = 1024;
  std::uint64_t seed = 1;
  /// Settle kernel of the internal simulator (DSE kernel axis).
  sim::KernelKind kernel = sim::KernelKind::kEventDriven;
};

/// Architectural state of one hardware thread.
struct ThreadArch {
  explicit ThreadArch(const ProcessorConfig& cfg)
      : dmem(cfg.dmem_words),
        dcache(cfg.dcache_lines, cfg.dcache_line_words, cfg.dmem_hit_latency,
               cfg.dmem_miss_latency) {}

  Program program;
  std::array<std::uint32_t, kNumRegs> regs{};
  std::uint32_t pc = 0;
  bool halted = false;
  bool in_flight = false;
  std::uint64_t retired = 0;
  DataMemory dmem;
  CacheModel dcache;
};

class FetchStage;
class DecodeStage;
class ExStage;
class MemStage;
class WbStage;

class Processor {
 public:
  explicit Processor(const ProcessorConfig& cfg);
  ~Processor();

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  /// Installs thread t's program. Threads without programs stay halted.
  void load_program(std::size_t t, Program program);

  /// Pre-loads thread t's private data memory (before run()).
  void set_dmem(std::size_t t, std::uint32_t addr, std::uint32_t value);

  /// Resets and runs until every thread has halted and drained, or the
  /// budget is exhausted. Returns cycles consumed, or 0 on timeout.
  sim::Cycle run(sim::Cycle max_cycles = 1u << 22);

  [[nodiscard]] bool all_halted() const;

  [[nodiscard]] std::uint32_t reg(std::size_t t, unsigned r) const;
  [[nodiscard]] std::uint32_t dmem_read(std::size_t t, std::uint32_t addr) const;
  [[nodiscard]] std::uint64_t retired(std::size_t t) const;
  [[nodiscard]] std::uint64_t total_retired() const;
  [[nodiscard]] double ipc() const;
  [[nodiscard]] const CacheModel& dcache(std::size_t t) const;

  [[nodiscard]] std::size_t threads() const noexcept { return cfg_.threads; }
  [[nodiscard]] const ProcessorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const mt::AnyMeb<Uop>& meb(std::size_t index) const {
    return mebs_.at(index);
  }

 private:
  ProcessorConfig cfg_;
  sim::Simulator sim_;
  std::vector<ThreadArch> arch_;

  // Channels: IF -> meb0 -> ID -> meb1 -> EX -> meb2 -> MEM -> meb3 -> WB.
  std::vector<mt::MtChannel<Uop>*> channels_;
  FetchStage* fetch_ = nullptr;
  DecodeStage* decode_ = nullptr;
  ExStage* ex_ = nullptr;
  MemStage* mem_ = nullptr;
  WbStage* wb_ = nullptr;
  std::vector<mt::AnyMeb<Uop>> mebs_;
};

}  // namespace mte::cpu
