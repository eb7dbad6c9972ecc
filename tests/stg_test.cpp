// Tests for the STG engine, protocol classification (thesis Fig 2.4) and the
// speed-independent verifier.
#include <gtest/gtest.h>

#include "stg/protocols.h"
#include "stg/si_verify.h"
#include "stg/stg.h"

namespace stg = desync::stg;

namespace {

// ------------------------------------------------------------ STG engine

TEST(Stg, FireAndEnable) {
  stg::Stg net;
  auto a = net.addTransition("a+");
  auto b = net.addTransition("b+");
  net.connect(a, b, 0);
  auto p0 = net.addPlace(1);
  net.arcPT(p0, a);

  const stg::Marking& m0 = net.initialMarking();
  EXPECT_TRUE(net.isEnabled(m0, a));
  EXPECT_FALSE(net.isEnabled(m0, b));
  stg::Marking m1 = net.fire(m0, a);
  EXPECT_TRUE(net.isEnabled(m1, b));
  EXPECT_THROW((void)net.fire(m0, b), stg::StgError);
}

TEST(Stg, SimpleCycleIsLive) {
  stg::Stg net;
  net.connect("a+", "a-", 0);
  net.connect("a-", "a+", 1);
  stg::Reachability r = stg::analyze(net);
  EXPECT_EQ(r.num_states, 2u);
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.deadlock_free);
  EXPECT_TRUE(r.output_persistent);
}

TEST(Stg, DetectsDeadlock) {
  stg::Stg net;
  // a+ enabled once; b+ waits for a token that never arrives back.
  net.connect("a+", "b+", 0);
  auto p = net.addPlace(1);
  net.arcPT(p, net.transitionFor("a+"));
  stg::Reachability r = stg::analyze(net);
  EXPECT_FALSE(r.deadlock_free);
  EXPECT_FALSE(r.live);
}

TEST(Stg, DetectsNonPersistency) {
  // Two transitions share an input place: firing one disables the other.
  stg::Stg net;
  auto a = net.addTransition("a+");
  auto b = net.addTransition("b+");
  auto p = net.addPlace(1);
  net.arcPT(p, a);
  net.arcPT(p, b);
  stg::Reachability r = stg::analyze(net);
  EXPECT_FALSE(r.output_persistent);
}

TEST(Stg, BoundsStateSpace) {
  // Token generator: a+ keeps producing into an unconsumed place.
  stg::Stg net;
  auto a = net.addTransition("a+");
  auto p = net.addPlace(1);
  net.arcPT(p, a);
  net.arcTP(a, p);
  auto sink = net.addPlace(0);
  net.arcTP(a, sink);
  stg::Reachability r = stg::analyze(net);
  EXPECT_FALSE(r.bounded);
  EXPECT_FALSE(r.live);
}

// ------------------------------------------------- Fig 2.4 classification

struct Expected {
  stg::Protocol p;
  std::size_t states;
  bool live;
  bool fe;
};

// Names the discovered ctest case after the protocol. Without it GoogleTest
// prints the raw bytes of Expected, padding included, so the case names
// changed from build to build.
void PrintTo(const Expected& e, std::ostream* os) {
  *os << stg::protocolName(e.p);
}

class ProtocolFig24 : public ::testing::TestWithParam<Expected> {};

TEST_P(ProtocolFig24, MatchesPublishedClassification) {
  const Expected& e = GetParam();
  stg::ProtocolClass c = stg::classifyProtocol(e.p);
  EXPECT_EQ(c.pair_states, e.states) << stg::protocolName(e.p);
  EXPECT_EQ(c.pair_live, e.live) << stg::protocolName(e.p);
  if (e.live) {
    EXPECT_TRUE(c.ring_live) << stg::protocolName(e.p);
    EXPECT_EQ(c.flow_equivalent, e.fe) << stg::protocolName(e.p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolFig24,
    ::testing::Values(
        // Fig 2.4: concurrency-ordered; fall-decoupled live but NOT
        // flow-equivalent; the middle three live + flow-equivalent;
        // non-overlapping not live (deadlocks; its nominal square cycle
        // would have 4 states).
        Expected{stg::Protocol::kFallDecoupled, 10, true, false},
        Expected{stg::Protocol::kDesyncModel, 8, true, true},
        Expected{stg::Protocol::kSemiDecoupled, 6, true, true},
        Expected{stg::Protocol::kSimple, 5, true, true},
        Expected{stg::Protocol::kNonOverlapping, 2, false, false}));

class RingLiveness
    : public ::testing::TestWithParam<std::tuple<stg::Protocol, int>> {};

TEST_P(RingLiveness, LiveProtocolsStayLiveInRings) {
  auto [p, n] = GetParam();
  stg::Reachability r = stg::analyze(stg::makeRingStg(p, n));
  EXPECT_TRUE(r.live) << stg::protocolName(p) << " ring " << n << ": "
                      << r.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RingLiveness,
    ::testing::Combine(::testing::Values(stg::Protocol::kDesyncModel,
                                         stg::Protocol::kSemiDecoupled,
                                         stg::Protocol::kSimple),
                       ::testing::Values(2, 3, 4, 5, 6)));

TEST(Protocols, FlowEquivalenceViolationIsOverwrite) {
  stg::FlowEqResult r =
      stg::checkFlowEquivalence(stg::Protocol::kFallDecoupled);
  EXPECT_FALSE(r.holds);
  EXPECT_NE(r.violation.find("skip"), std::string::npos) << r.violation;
}

TEST(Protocols, SemiDecoupledRefinesDesyncModel) {
  // Every trace of the semi-decoupled protocol must satisfy the
  // de-synchronization model's two rules; spot-check via the monitor plus
  // liveness of both.
  EXPECT_TRUE(stg::checkFlowEquivalence(stg::Protocol::kSemiDecoupled).holds);
  EXPECT_TRUE(stg::checkFlowEquivalence(stg::Protocol::kDesyncModel).holds);
  // And the concurrency ordering of Fig 2.4 holds strictly.
  EXPECT_GT(stg::classifyProtocol(stg::Protocol::kDesyncModel).pair_states,
            stg::classifyProtocol(stg::Protocol::kSemiDecoupled).pair_states);
  EXPECT_GT(stg::classifyProtocol(stg::Protocol::kSemiDecoupled).pair_states,
            stg::classifyProtocol(stg::Protocol::kSimple).pair_states);
}

// ------------------------------------------------ SI verifier

/// Canonical C-element closed spec: inputs a, b rise concurrently, output c
/// joins them, then both fall, c follows.
stg::Stg celementSpec() {
  stg::Stg spec;
  spec.addSignal("a", stg::SignalKind::kInput);
  spec.addSignal("b", stg::SignalKind::kInput);
  spec.addSignal("c", stg::SignalKind::kOutput);
  spec.connect("a+", "c+", 0);
  spec.connect("b+", "c+", 0);
  spec.connect("c+", "a-", 0);
  spec.connect("c+", "b-", 0);
  spec.connect("a-", "c-", 0);
  spec.connect("b-", "c-", 0);
  spec.connect("c-", "a+", 1);
  spec.connect("c-", "b+", 1);
  return spec;
}

stg::GateSpec majorityCElement() {
  stg::GateSpec g;
  g.output = "c";
  g.inputs = {"a", "b", "c"};
  g.eval = [](const std::vector<bool>& v) {
    return (v[0] && v[1]) || (v[0] && v[2]) || (v[1] && v[2]);
  };
  g.initial = false;
  return g;
}

TEST(SiVerify, MajorityCElementConforms) {
  stg::SiCircuit circuit;
  circuit.inputs = {"a", "b"};
  circuit.input_initial = {false, false};
  circuit.gates = {majorityCElement()};
  stg::SiResult r = stg::verifySpeedIndependent(circuit, celementSpec());
  EXPECT_TRUE(r.ok()) << r.violation;
  EXPECT_GT(r.states, 4u);
}

TEST(SiVerify, AndGateIsNotACElement) {
  stg::SiCircuit circuit;
  circuit.inputs = {"a", "b"};
  circuit.input_initial = {false, false};
  stg::GateSpec g;
  g.output = "c";
  g.inputs = {"a", "b"};
  g.eval = [](const std::vector<bool>& v) { return v[0] && v[1]; };
  circuit.gates = {g};
  stg::SiResult r = stg::verifySpeedIndependent(circuit, celementSpec());
  // The AND gate drops c as soon as one input falls -> spec violation.
  EXPECT_FALSE(r.conforms);
}

TEST(SiVerify, DetectsHazard) {
  // y = a XOR x with x = a: after a+ both x and y are excited; firing x
  // withdraws y's excitation -> classic gate-race hazard.
  stg::Stg spec;
  spec.addSignal("a", stg::SignalKind::kInput);
  // x and y are left out of the spec: internal, unconstrained signals that
  // are still subject to the semi-modularity (hazard) check.
  spec.connect("a+", "a-", 0);
  spec.connect("a-", "a+", 1);
  stg::SiCircuit circuit;
  circuit.inputs = {"a"};
  circuit.input_initial = {false};
  stg::GateSpec x;
  x.output = "x";
  x.inputs = {"a"};
  x.eval = [](const std::vector<bool>& v) { return v[0]; };
  stg::GateSpec y;
  y.output = "y";
  y.inputs = {"a", "x"};
  y.eval = [](const std::vector<bool>& v) { return v[0] != v[1]; };
  circuit.gates = {x, y};
  stg::SiResult r = stg::verifySpeedIndependent(circuit, spec);
  EXPECT_FALSE(r.hazard_free);
  EXPECT_NE(r.violation.find("hazard"), std::string::npos);
}

TEST(SiVerify, DetectsUnstableReset) {
  stg::Stg spec;
  spec.addSignal("a", stg::SignalKind::kInput);
  spec.connect("a+", "a-", 0);
  spec.connect("a-", "a+", 1);
  stg::SiCircuit circuit;
  circuit.inputs = {"a"};
  circuit.input_initial = {false};
  stg::GateSpec g;
  g.output = "x";
  g.inputs = {"a"};
  g.eval = [](const std::vector<bool>& v) { return !v[0]; };
  g.initial = false;  // wrong: should be 1 when a=0
  circuit.gates = {g};
  stg::SiResult r = stg::verifySpeedIndependent(circuit, spec);
  EXPECT_FALSE(r.stable_start);
}

}  // namespace
