#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mte::sim {
namespace {

/// A register: out <= in at each clock edge.
class Reg : public Component {
 public:
  Reg(Simulator& s, std::string name, Wire<int>& in, Wire<int>& out)
      : Component(s, std::move(name)), in_(in), out_(out) {}
  void reset() override { state_ = 0; }
  void eval() override { out_.set(state_); }
  void tick() override { state_ = in_.get(); }

 private:
  Wire<int>& in_;
  Wire<int>& out_;
  int state_ = 0;
};

/// Combinational +1.
class Inc : public Component {
 public:
  Inc(Simulator& s, std::string name, Wire<int>& in, Wire<int>& out)
      : Component(s, std::move(name)), in_(in), out_(out) {}
  void eval() override { out_.set(in_.get() + 1); }
  void tick() override {}

 private:
  Wire<int>& in_;
  Wire<int>& out_;
};

TEST(Wire, SetNotesChangeOnlyOnNewValue) {
  ChangeTracker t;
  Wire<int> w(t, 0);
  EXPECT_FALSE(t.consume());
  w.set(5);
  EXPECT_TRUE(t.consume());
  w.set(5);
  EXPECT_FALSE(t.consume());
  EXPECT_EQ(w.get(), 5);
}

TEST(Simulator, CounterCircuitCountsCycles) {
  // reg -> inc -> reg closes a counter loop through a register.
  Simulator s;
  Wire<int> q(s.tracker(), 0);
  Wire<int> d(s.tracker(), 0);
  Reg reg(s, "reg", d, q);
  Inc inc(s, "inc", q, d);
  s.reset();
  s.run(10);
  s.settle();
  EXPECT_EQ(q.get(), 10);
}

TEST(Simulator, EvaluationOrderDoesNotMatter) {
  // Same circuit with components registered in the opposite order.
  Simulator s;
  Wire<int> q(s.tracker(), 0);
  Wire<int> d(s.tracker(), 0);
  Inc inc(s, "inc", q, d);
  Reg reg(s, "reg", d, q);
  s.reset();
  s.run(10);
  s.settle();
  EXPECT_EQ(q.get(), 10);
}

/// Oscillator: out = !out (no register in the loop).
class Not : public Component {
 public:
  Not(Simulator& s, Wire<bool>& in, Wire<bool>& out)
      : Component(s, "not"), in_(in), out_(out) {}
  void eval() override { out_.set(!in_.get()); }
  void tick() override {}

 private:
  Wire<bool>& in_;
  Wire<bool>& out_;
};

TEST(Simulator, CombinationalLoopDetected) {
  Simulator s;
  Wire<bool> a(s.tracker(), false);
  Not n(s, a, a);  // a = !a
  EXPECT_THROW(s.step(), CombinationalLoopError);
}

TEST(Simulator, ResetRestartsCycleCountAndState) {
  Simulator s;
  Wire<int> q(s.tracker(), 0);
  Wire<int> d(s.tracker(), 0);
  Reg reg(s, "reg", d, q);
  Inc inc(s, "inc", q, d);
  s.reset();
  s.run(5);
  EXPECT_EQ(s.now(), 5u);
  s.reset();
  EXPECT_EQ(s.now(), 0u);
  s.run(3);
  s.settle();
  EXPECT_EQ(q.get(), 3);
}

TEST(Simulator, ObserversSeeSettledPreEdgeState) {
  Simulator s;
  Wire<int> q(s.tracker(), 0);
  Wire<int> d(s.tracker(), 0);
  Reg reg(s, "reg", d, q);
  Inc inc(s, "inc", q, d);
  std::vector<int> seen;
  s.on_cycle([&](Cycle) { seen.push_back(q.get()); });
  s.reset();
  s.run(4);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, MakeOwnsObjects) {
  Simulator s;
  auto& q = s.make<Wire<int>>(s.tracker(), 0);
  auto& d = s.make<Wire<int>>(s.tracker(), 0);
  s.make<Reg>(s, "reg", d, q);
  s.make<Inc>(s, "inc", q, d);
  EXPECT_EQ(s.component_count(), 2u);
  s.reset();
  s.run(7);
  s.settle();
  EXPECT_EQ(q.get(), 7);
}

TEST(Simulator, MakeRejectsComponentOfForeignSimulator) {
  // Simulator::make owns the object, but a Component registers itself with
  // the simulator passed to its *constructor*. Mixing the two used to
  // silently produce a component owned by one simulator and clocked (and
  // change-tracked) by another; now it throws.
  Simulator a;
  Simulator b;
  auto& d = a.make<Wire<int>>(a.tracker(), 0);
  auto& q = a.make<Wire<int>>(a.tracker(), 0);
  EXPECT_THROW(a.make<Reg>(b, "foreign", d, q), SimulationError);
  // The rejected component is fully unregistered from the foreign
  // simulator: b still works and owns nothing.
  EXPECT_EQ(b.component_count(), 0u);
  b.reset();
  b.run(3);
  EXPECT_EQ(b.now(), 3u);
  // Constructing through the owning simulator is fine.
  auto& reg = a.make<Reg>(a, "own", d, q);
  EXPECT_EQ(reg.name(), "own");
  EXPECT_EQ(a.component_count(), 1u);
}

TEST(Simulator, KernelSelectionAndSwitching) {
  Simulator s(KernelKind::kNaive);
  EXPECT_EQ(s.kernel(), KernelKind::kNaive);
  Wire<int> q(s.tracker(), 0);
  Wire<int> d(s.tracker(), 0);
  Reg reg(s, "reg", d, q);
  Inc inc(s, "inc", q, d);
  s.reset();
  s.run(4);
  // Mid-run kernel switch keeps the architectural state.
  s.set_kernel(KernelKind::kEventDriven);
  EXPECT_EQ(s.kernel(), KernelKind::kEventDriven);
  s.run(4);
  s.settle();
  EXPECT_EQ(q.get(), 8);
  s.set_kernel(KernelKind::kNaive);
  s.run(2);
  s.settle();
  EXPECT_EQ(q.get(), 10);
}

TEST(Simulator, EventKernelDefaultAndFewerEvals) {
  // The event-driven kernel is the default and does strictly less settle
  // work than the naive reference on a register pipeline.
  Simulator ev;
  EXPECT_EQ(ev.kernel(), KernelKind::kEventDriven);
  Simulator nv(KernelKind::kNaive);
  auto build = [](Simulator& s, std::vector<std::unique_ptr<Wire<int>>>& wires,
                  std::vector<std::unique_ptr<Component>>& comps) {
    wires.push_back(std::make_unique<Wire<int>>(s.tracker(), 0));
    for (int i = 0; i < 8; ++i) {
      wires.push_back(std::make_unique<Wire<int>>(s.tracker(), 0));
      comps.push_back(std::make_unique<Inc>(s, "inc" + std::to_string(i),
                                            *wires[wires.size() - 2], *wires.back()));
    }
    comps.push_back(std::make_unique<Reg>(s, "reg", *wires.back(), *wires.front()));
  };
  std::vector<std::unique_ptr<Wire<int>>> we, wn;
  std::vector<std::unique_ptr<Component>> ce, cn;
  build(ev, we, ce);
  build(nv, wn, cn);
  ev.reset();
  nv.reset();
  ev.run(50);
  nv.run(50);
  EXPECT_EQ(we.front()->get(), wn.front()->get());
  EXPECT_LT(ev.eval_count(), nv.eval_count());
}

TEST(Simulator, DeepCombinationalChainSettles) {
  // 50 chained incrementers settle within the automatic limit.
  Simulator s;
  Wire<int> q(s.tracker(), 0);
  Wire<int> d0(s.tracker(), 0);
  Reg reg(s, "reg", d0, q);
  std::vector<std::unique_ptr<Wire<int>>> wires;
  std::vector<std::unique_ptr<Inc>> incs;
  Wire<int>* prev = &q;
  for (int i = 0; i < 50; ++i) {
    wires.push_back(std::make_unique<Wire<int>>(s.tracker(), 0));
    incs.push_back(std::make_unique<Inc>(s, "inc" + std::to_string(i), *prev,
                                         *wires.back()));
    prev = wires.back().get();
  }
  // Close the loop: last chain output feeds the register input.
  incs.push_back(std::make_unique<Inc>(s, "close", *prev, d0));
  s.reset();
  s.run(2);
  s.settle();
  EXPECT_EQ(q.get(), 2 * 51);
}

}  // namespace
}  // namespace mte::sim
