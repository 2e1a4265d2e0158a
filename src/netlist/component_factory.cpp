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

const ComponentFactory::StBuilder& ComponentFactory::st(const Node& node) const {
  if (node.type == NodeType::kCustom) {
    const auto it = custom_st_.find(node.fn);
    if (it == custom_st_.end()) {
      throw ElaborationError("custom node '" + node.name + "': no single-thread " +
                             "builder registered for kind '" + node.fn + "'");
    }
    return it->second;
  }
  const auto it = st_.find(node.type);
  if (it == st_.end()) {
    throw ElaborationError(std::string("no single-thread builder registered for ") +
                           to_string(node.type) + " node '" + node.name + "'");
  }
  return it->second;
}

const ComponentFactory::MtBuilder& ComponentFactory::mt(const Node& node) const {
  if (node.type == NodeType::kCustom) {
    const auto it = custom_mt_.find(node.fn);
    if (it == custom_mt_.end()) {
      throw ElaborationError("custom node '" + node.name + "': no multithreaded " +
                             "builder registered for kind '" + node.fn + "'");
    }
    return it->second;
  }
  const auto it = mt_.find(node.type);
  if (it == mt_.end()) {
    throw ElaborationError(std::string("no multithreaded builder registered for ") +
                           to_string(node.type) + " node '" + node.name + "'");
  }
  return it->second;
}

ComponentFactory ComponentFactory::with_defaults() {
  ComponentFactory f;

  // --- single-thread primitives (elastic::) -------------------------------
  f.register_st(NodeType::kSource, [](const StContext& ctx) {
    auto& src = ctx.sim.make<elastic::Source<Word>>(ctx.sim, ctx.node.name, ctx.out(0));
    src.set_rate(ctx.node.rate, 17 + ctx.node.id);
    ctx.elab.expose_source(ctx.node.name, src);
  });
  f.register_st(NodeType::kSink, [](const StContext& ctx) {
    auto& snk = ctx.sim.make<elastic::Sink<Word>>(ctx.sim, ctx.node.name, ctx.in(0));
    snk.set_rate(ctx.node.rate, 23 + ctx.node.id);
    ctx.elab.expose_sink(ctx.node.name, snk);
  });
  f.register_st(NodeType::kBuffer, [](const StContext& ctx) {
    auto& eb = ctx.sim.make<elastic::ElasticBuffer<Word>>(
        ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0));
    ctx.elab.expose_buffer(ctx.node.name, [&eb] { return eb.occupancy(); });
  });
  f.register_st(NodeType::kFork, [](const StContext& ctx) {
    std::vector<elastic::Channel<Word>*> outs;
    for (unsigned p = 0; p < ctx.node.outputs; ++p) outs.push_back(&ctx.out(p));
    ctx.sim.make<elastic::Fork<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                      std::move(outs));
  });
  f.register_st(NodeType::kJoin, [](const StContext& ctx) {
    std::vector<elastic::Channel<Word>*> ins;
    for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
    ctx.sim.make<elastic::JoinN<Word>>(ctx.sim, ctx.node.name, std::move(ins),
                                       ctx.out(0), [](const std::vector<Word>& v) {
                                         Word sum = 0;
                                         for (Word x : v) sum += x;
                                         return sum;
                                       });
  });
  f.register_st(NodeType::kMerge, [](const StContext& ctx) {
    // Netlist merges arbitrate: loop-entry merges legitimately see a new
    // token and a looped-back token in the same cycle.
    std::vector<elastic::Channel<Word>*> ins;
    for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
    ctx.sim.make<elastic::ArbMerge<Word>>(ctx.sim, ctx.node.name, std::move(ins),
                                          ctx.out(0));
  });
  f.register_st(NodeType::kBranch, [](const StContext& ctx) {
    ctx.sim.make<PredBranch<Word>>(ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0),
                                   ctx.out(1), ctx.registry.pred(ctx.node.fn));
  });
  f.register_st(NodeType::kFunction, [](const StContext& ctx) {
    ctx.sim.make<elastic::FunctionUnit<Word, Word>>(ctx.sim, ctx.node.name,
                                                    ctx.in(0), ctx.out(0),
                                                    ctx.registry.fn(ctx.node.fn));
  });
  f.register_st(NodeType::kVarLatency, [](const StContext& ctx) {
    auto& vl = ctx.sim.make<elastic::VariableLatencyUnit<Word>>(
        ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0));
    vl.set_latency_range(ctx.node.latency_lo, ctx.node.latency_hi, 31 + ctx.node.id);
  });

  // --- multithreaded primitives (mt::) ------------------------------------
  f.register_mt(NodeType::kSource, [](const MtContext& ctx) {
    auto& src = ctx.sim.make<mt::MtSource<Word>>(
        ctx.sim, ctx.node.name, ctx.out(0),
        mt::make_arbiter(ctx.elab.options().arbiter, ctx.threads()));
    for (std::size_t t = 0; t < ctx.threads(); ++t) {
      src.set_rate(t, ctx.node.rate, 17 + ctx.node.id);
    }
    ctx.elab.expose_mt_source(ctx.node.name, src);
  });
  f.register_mt(NodeType::kSink, [](const MtContext& ctx) {
    auto& snk = ctx.sim.make<mt::MtSink<Word>>(ctx.sim, ctx.node.name, ctx.in(0));
    for (std::size_t t = 0; t < ctx.threads(); ++t) {
      snk.set_rate(t, ctx.node.rate, 23 + ctx.node.id);
    }
    ctx.elab.expose_mt_sink(ctx.node.name, snk);
  });
  f.register_mt(NodeType::kBuffer, [](const MtContext& ctx) {
    const ElaborationOptions& opt = ctx.elab.options();
    // A pool size overrides the netlist's MEB kind: every buffer becomes
    // a reduced MEB with that many shared slots.
    const mt::MebKind kind =
        opt.meb_shared_slots.has_value() ? mt::MebKind::kReduced : ctx.meb_kind();
    ctx.elab.expose_meb(ctx.node.name,
                        mt::AnyMeb<Word>::create(
                            ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0), kind,
                            mt::make_arbiter(opt.arbiter, ctx.threads()),
                            opt.meb_shared_slots.value_or(1)));
  });
  f.register_mt(NodeType::kFork, [](const MtContext& ctx) {
    std::vector<mt::MtChannel<Word>*> outs;
    for (unsigned p = 0; p < ctx.node.outputs; ++p) outs.push_back(&ctx.out(p));
    ctx.sim.make<mt::MFork<Word>>(ctx.sim, ctx.node.name, ctx.in(0), std::move(outs));
  });
  f.register_mt(NodeType::kJoin, [](const MtContext& ctx) {
    if (ctx.node.inputs != 2) {
      throw ElaborationError("multithreaded elaboration supports 2-input joins; '" +
                             ctx.node.name + "' has " +
                             std::to_string(ctx.node.inputs));
    }
    ctx.sim.make<mt::MJoin<Word, Word, Word>>(
        ctx.sim, ctx.node.name, ctx.in(0), ctx.in(1), ctx.out(0),
        [](const Word& a, const Word& b) { return a + b; });
  });
  f.register_mt(NodeType::kMerge, [](const MtContext& ctx) {
    std::vector<mt::MtChannel<Word>*> ins;
    for (unsigned p = 0; p < ctx.node.inputs; ++p) ins.push_back(&ctx.in(p));
    ctx.sim.make<mt::MMerge<Word>>(ctx.sim, ctx.node.name, std::move(ins), ctx.out(0),
                                   /*exclusive=*/false);
  });
  f.register_mt(NodeType::kBranch, [](const MtContext& ctx) {
    ctx.sim.make<MtPredBranch<Word>>(ctx.sim, ctx.node.name, ctx.in(0), ctx.out(0),
                                     ctx.out(1), ctx.registry.pred(ctx.node.fn));
  });
  f.register_mt(NodeType::kFunction, [](const MtContext& ctx) {
    ctx.sim.make<mt::MtFunctionUnit<Word, Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                                 ctx.out(0),
                                                 ctx.registry.fn(ctx.node.fn));
  });
  // The paper's shared variable-latency server: one unit time-multiplexed
  // by all threads (Sec. V usage).
  f.register_mt(NodeType::kVarLatency, [](const MtContext& ctx) {
    auto& vl = ctx.sim.make<mt::MtVarLatencyUnit<Word>>(ctx.sim, ctx.node.name,
                                                        ctx.in(0), ctx.out(0));
    vl.set_latency_range(ctx.node.latency_lo, ctx.node.latency_hi, 31 + ctx.node.id);
  });

  return f;
}

const ComponentFactory& ComponentFactory::defaults() {
  static const ComponentFactory instance = with_defaults();
  return instance;
}

}  // namespace mte::netlist
