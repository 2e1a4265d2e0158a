// The built-in primitive set of both elaboration modes (Elaboration::build)
// and the custom-kind registry's shared empty instance.
#include "netlist/component_factory.hpp"

#include <vector>

#include "elastic/elastic_buffer.hpp"
#include "elastic/fork.hpp"
#include "elastic/function_unit.hpp"
#include "elastic/join.hpp"
#include "elastic/merge.hpp"
#include "elastic/var_latency.hpp"
#include "mt/m_fork.hpp"
#include "mt/m_join.hpp"
#include "mt/m_merge.hpp"
#include "mt/mt_function_unit.hpp"
#include "mt/mt_var_latency.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/pred_branch.hpp"

namespace mte::netlist {

const ComponentFactory& ComponentFactory::defaults() {
  static const ComponentFactory instance;
  return instance;
}

// --- single-thread primitives (elastic::) ---------------------------------
void Elaboration::build(const StContext& ctx, const ComponentFactory& factory) {
  switch (ctx.node.type) {
    case NodeType::kSource: {
      auto& src = ctx.sim.make<elastic::Source<Word>>(ctx.sim, ctx.node.name, ctx.out(0));
      src.set_rate(ctx.node.rate, 17 + ctx.node.id);
      sources_[ctx.node.name] = &src;
      return;
    }
    case NodeType::kSink: {
      auto& snk = ctx.sim.make<elastic::Sink<Word>>(ctx.sim, ctx.node.name, ctx.in(0));
      snk.set_rate(ctx.node.rate, 23 + ctx.node.id);
      sinks_[ctx.node.name] = &snk;
      return;
    }
    case NodeType::kBuffer:
      buffers_[ctx.node.name] = &ctx.sim.make<elastic::ElasticBuffer<Word>>(
          ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0));
      return;
    case NodeType::kFork: {
      std::vector<elastic::Channel<Word>*> outs;
      for (unsigned p = 0; p < ctx.node.outputs; ++p) outs.push_back(&ctx.out(p));
      ctx.sim.make<elastic::Fork<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                        std::move(outs));
      return;
    }
    case NodeType::kJoin: {
      std::vector<elastic::Channel<Word>*> ins;
      for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
      ctx.sim.make<elastic::JoinN<Word>>(ctx.sim, ctx.node.name, std::move(ins),
                                         ctx.out(0), [](const std::vector<Word>& v) {
                                           Word sum = 0;
                                           for (Word x : v) sum += x;
                                           return sum;
                                         });
      return;
    }
    case NodeType::kMerge: {
      // Netlist merges arbitrate: loop-entry merges legitimately see a new
      // token and a looped-back token in the same cycle.
      std::vector<elastic::Channel<Word>*> ins;
      for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
      ctx.sim.make<elastic::ArbMerge<Word>>(ctx.sim, ctx.node.name, std::move(ins),
                                            ctx.out(0));
      return;
    }
    case NodeType::kBranch:
      ctx.sim.make<PredBranch<Word>>(ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0),
                                     ctx.out(1), ctx.registry.pred(ctx.node.fn));
      return;
    case NodeType::kFunction:
      ctx.sim.make<elastic::FunctionUnit<Word, Word>>(ctx.sim, ctx.node.name,
                                                      ctx.in(0), ctx.out(0),
                                                      ctx.registry.fn(ctx.node.fn));
      return;
    case NodeType::kVarLatency: {
      auto& vl = ctx.sim.make<elastic::VariableLatencyUnit<Word>>(
          ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0));
      vl.set_latency_range(ctx.node.latency_lo, ctx.node.latency_hi, 31 + ctx.node.id);
      return;
    }
    case NodeType::kCustom:
      factory.build(ctx);
      return;
  }
}

// --- multithreaded primitives (mt::) --------------------------------------
void Elaboration::build(const MtContext& ctx, const ComponentFactory& factory) {
  switch (ctx.node.type) {
    case NodeType::kSource: {
      auto& src = ctx.sim.make<mt::MtSource<Word>>(
          ctx.sim, ctx.node.name, ctx.out(0),
          mt::make_arbiter(options_.arbiter, ctx.threads()));
      for (std::size_t t = 0; t < ctx.threads(); ++t) {
        src.set_rate(t, ctx.node.rate, 17 + ctx.node.id);
      }
      mt_sources_[ctx.node.name] = &src;
      return;
    }
    case NodeType::kSink: {
      auto& snk = ctx.sim.make<mt::MtSink<Word>>(ctx.sim, ctx.node.name, ctx.in(0));
      for (std::size_t t = 0; t < ctx.threads(); ++t) {
        snk.set_rate(t, ctx.node.rate, 23 + ctx.node.id);
      }
      mt_sinks_[ctx.node.name] = &snk;
      return;
    }
    case NodeType::kBuffer: {
      // A pool size overrides the netlist's MEB kind: every buffer becomes
      // a reduced MEB with that many shared slots.
      const mt::MebKind kind = options_.meb_shared_slots.has_value()
                                   ? mt::MebKind::kReduced
                                   : ctx.meb_kind();
      mebs_.emplace(ctx.node.name,
                    mt::AnyMeb<Word>::create(
                        ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0), kind,
                        mt::make_arbiter(options_.arbiter, ctx.threads()),
                        options_.meb_shared_slots.value_or(1)));
      return;
    }
    case NodeType::kFork: {
      std::vector<mt::MtChannel<Word>*> outs;
      for (unsigned p = 0; p < ctx.node.outputs; ++p) outs.push_back(&ctx.out(p));
      ctx.sim.make<mt::MFork<Word>>(ctx.sim, ctx.node.name, ctx.in(0), std::move(outs));
      return;
    }
    case NodeType::kJoin:
      if (ctx.node.inputs != 2) {
        throw ElaborationError("multithreaded elaboration supports 2-input joins; '" +
                               ctx.node.name + "' has " +
                               std::to_string(ctx.node.inputs));
      }
      ctx.sim.make<mt::MJoin<Word, Word, Word>>(
          ctx.sim, ctx.node.name, ctx.in(0), ctx.in(1), ctx.out(0),
          [](const Word& a, const Word& b) { return a + b; });
      return;
    case NodeType::kMerge: {
      std::vector<mt::MtChannel<Word>*> ins;
      for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
      ctx.sim.make<mt::MMerge<Word>>(ctx.sim, ctx.node.name, std::move(ins), ctx.out(0),
                                     /*exclusive=*/false);
      return;
    }
    case NodeType::kBranch:
      ctx.sim.make<MtPredBranch<Word>>(ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0),
                                       ctx.out(1), ctx.registry.pred(ctx.node.fn));
      return;
    case NodeType::kFunction:
      ctx.sim.make<mt::MtFunctionUnit<Word, Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                                   ctx.out(0),
                                                   ctx.registry.fn(ctx.node.fn));
      return;
    case NodeType::kVarLatency: {
      // The paper's shared variable-latency server: one unit
      // time-multiplexed by all threads (Sec. V usage).
      auto& vl = ctx.sim.make<mt::MtVarLatencyUnit<Word>>(ctx.sim, ctx.node.name,
                                                          ctx.in(0), ctx.out(0));
      vl.set_latency_range(ctx.node.latency_lo, ctx.node.latency_hi, 31 + ctx.node.id);
      return;
    }
    case NodeType::kCustom:
      factory.build(ctx);
      return;
  }
}

}  // namespace mte::netlist
