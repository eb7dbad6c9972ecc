// Figure 2.4 — desynchronization protocol ordering by allowed concurrency.
//
// Recomputes the classification the figure reports for the five handshake
// protocols: reachable state count of the two-latch STG, liveness (pair and
// master/slave ring compositions), and flow-equivalence via the semantic
// datum-commit monitor.  Also re-derives the de-synchronization model by
// exhaustive search over the protocol lattice: it is the maximally
// concurrent live + flow-equivalent protocol.
#include <cstdio>
#include <map>
#include <vector>

#include "stg/protocols.h"

namespace stg = desync::stg;

int main() {
  std::printf(
      "\n==== Figure 2.4: protocol ordering according to allowed "
      "concurrency ====\n");
  std::printf("  %-20s %8s %8s %10s %10s   %s\n", "protocol", "states",
              "live", "ring-live", "flow-eq", "paper");
  struct Ref {
    stg::Protocol p;
    const char* paper;
  };
  const std::vector<Ref> protocols = {
      {stg::Protocol::kFallDecoupled, "10 states, not flow-equivalent"},
      {stg::Protocol::kDesyncModel, "8 states, live+flow-eq"},
      {stg::Protocol::kSemiDecoupled, "6 states, live+flow-eq"},
      {stg::Protocol::kSimple, "5 states, live+flow-eq"},
      {stg::Protocol::kNonOverlapping, "4-state cycle, NOT live"},
  };
  for (const Ref& ref : protocols) {
    stg::ProtocolClass c = stg::classifyProtocol(ref.p);
    std::printf("  %-20s %8zu %8s %10s %10s   %s\n",
                stg::protocolName(ref.p), c.pair_states,
                c.pair_live ? "yes" : "NO", c.ring_live ? "yes" : "NO",
                c.flow_equivalent ? "yes" : "NO", ref.paper);
  }

  // Lattice search: enumerate small cross-arc protocols, bucket by
  // (states, live, flow-equivalent).
  std::printf("\n  protocol lattice search (cross-arc sets up to 2 arcs):\n");
  using E = stg::Evt;
  const std::vector<std::pair<E, E>> candidates = {
      {E::kAp, E::kBp}, {E::kAm, E::kBp}, {E::kAp, E::kBm}, {E::kAm, E::kBm},
      {E::kBp, E::kAp}, {E::kBm, E::kAp}, {E::kBp, E::kAm}, {E::kBm, E::kAm}};
  std::map<std::pair<std::size_t, bool>, int> histogram;
  std::size_t max_fe_states = 0;
  for (unsigned code = 0; code < (1u << 16); ++code) {
    unsigned c2 = code;
    std::vector<stg::ProtocolArc> arcs;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      unsigned m = c2 & 3;
      c2 >>= 2;
      if (m == 0) continue;
      arcs.push_back(
          {candidates[i].first, candidates[i].second,
           static_cast<std::uint8_t>(m - 1)});
    }
    if (arcs.empty() || arcs.size() > 2) continue;
    try {
      stg::Stg net = stg::makePairStg(arcs);
      stg::Reachability r = stg::analyze(net);
      if (!r.live || !r.bounded) continue;
      stg::FlowEqResult fe = stg::checkFlowEquivalence(net, 0, 1);
      histogram[{r.num_states, fe.holds}]++;
      if (fe.holds) max_fe_states = std::max(max_fe_states, r.num_states);
    } catch (...) {
      continue;
    }
  }
  for (const auto& [key, count] : histogram) {
    std::printf("    %2zu states, flow-equivalent=%-3s : %d live protocols\n",
                key.first, key.second ? "yes" : "no", count);
  }
  std::printf(
      "  most concurrent live flow-equivalent protocol: %zu states "
      "(the de-synchronization model, paper: 8)\n",
      max_fe_states);
  return 0;
}
