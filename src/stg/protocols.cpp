#include "stg/protocols.h"

#include <deque>
#include <unordered_map>

#include "util/hash.h"

namespace desync::stg {
namespace {

const char* evtLabel(Evt e, bool for_a_signal_named_a) {
  (void)for_a_signal_named_a;
  switch (e) {
    case Evt::kAp:
      return "A+";
    case Evt::kAm:
      return "A-";
    case Evt::kBp:
      return "B+";
    case Evt::kBm:
      return "B-";
  }
  return "?";
}

/// Is this a "forward" arc (from an A event to a B event)?  Forward arcs
/// model data readiness, backward arcs model space availability.
bool isForward(const ProtocolArc& a) {
  return (a.from == Evt::kAp || a.from == Evt::kAm) &&
         (a.to == Evt::kBp || a.to == Evt::kBm);
}

}  // namespace

const char* protocolName(Protocol p) {
  switch (p) {
    case Protocol::kFallDecoupled:
      return "fall-decoupled";
    case Protocol::kDesyncModel:
      return "de-synchronization";
    case Protocol::kSemiDecoupled:
      return "semi-decoupled";
    case Protocol::kSimple:
      return "simple";
    case Protocol::kNonOverlapping:
      return "non-overlapping";
  }
  return "?";
}

std::vector<ProtocolArc> protocolArcs(Protocol p) {
  using E = Evt;
  switch (p) {
    case Protocol::kFallDecoupled:
      // Decoupled closing edges: A may accept new data two tokens ahead of
      // B's captures.  Live but data can be overwritten (not
      // flow-equivalent), like the Furber&Day fully/rise-decoupled family.
      return {{E::kAp, E::kBp, 0}, {E::kBm, E::kAp, 2}};
    case Protocol::kDesyncModel:
      // The de-synchronization model: a latch may only close once the new
      // datum arrived (A+ -> B-) and may only reopen once the successor
      // captured (B- -> A+).  This is the maximally concurrent live +
      // flow-equivalent protocol; re-derived here by exhaustive lattice
      // search (see the ProtocolLattice test and bench_fig24_protocols).
      return {{E::kAp, E::kBm, 0}, {E::kBm, E::kAp, 1}};
    case Protocol::kSemiDecoupled:
      return {{E::kAp, E::kBp, 0}, {E::kBm, E::kAp, 1}};
    case Protocol::kSimple:
      return {{E::kAp, E::kBp, 0}, {E::kBp, E::kAm, 0}, {E::kBm, E::kAp, 1}};
    case Protocol::kNonOverlapping:
      // Simple protocol plus strict non-overlap (B may open only after A
      // closed).  Together with the 4-phase ack-before-close arc B+ -> A-
      // this forms a token-free cycle: the protocol deadlocks after the
      // first A+ — the "not live" classification of Fig 2.4.  (The figure's
      // "4 states" label counts the intended non-overlapping square cycle.)
      return {{E::kAp, E::kBp, 0},
              {E::kBp, E::kAm, 0},
              {E::kBm, E::kAp, 1},
              {E::kAm, E::kBp, 0}};
  }
  return {};
}

Stg makePairStg(Protocol p) { return makePairStg(protocolArcs(p)); }

Stg makePairStg(const std::vector<ProtocolArc>& arcs) {
  Stg stg;
  // Alternation cycles; both signals start low so x+ carries the token.
  stg.connect("A+", "A-", 0);
  stg.connect("A-", "A+", 1);
  stg.connect("B+", "B-", 0);
  stg.connect("B-", "B+", 1);
  for (const ProtocolArc& a : arcs) {
    stg.connect(evtLabel(a.from, true), evtLabel(a.to, true), a.marked);
  }
  return stg;
}

Stg makeRingStg(Protocol p, int n) {
  if (n < 2) throw StgError("ring needs at least 2 latches");
  Stg stg;
  auto label = [](int i, Evt e) {
    std::string s = "L" + std::to_string(i);
    s += (e == Evt::kAp || e == Evt::kBp) ? "+" : "-";
    return s;
  };
  for (int i = 0; i < n; ++i) {
    stg.connect(label(i, Evt::kAp), label(i, Evt::kAm), 0);
    stg.connect(label(i, Evt::kAm), label(i, Evt::kAp), 1);
  }
  const std::vector<ProtocolArc> arcs = protocolArcs(p);
  for (int i = 0; i < n; ++i) {
    const int up = i;
    const int down = (i + 1) % n;
    for (const ProtocolArc& a : arcs) {
      auto name = [&](Evt e) {
        const bool a_side = (e == Evt::kAp || e == Evt::kAm);
        const int latch = a_side ? up : down;
        std::string s = "L" + std::to_string(latch);
        s += (e == Evt::kAp || e == Evt::kBp) ? "+" : "-";
        return s;
      };
      // Forward arcs: marked iff the upstream latch is odd (slave outputs
      // hold valid reset data).  Backward arcs: keep template marking.
      std::uint8_t tokens = a.marked;
      if (isForward(a)) tokens = (up % 2 == 1) ? 1 : 0;
      stg.connect(name(a.from), name(a.to), tokens);
    }
  }
  return stg;
}

// ----------------------------------------------------- flow equivalence

namespace {

/// Monitor over a trace of A/B latch-enable edges.  Tracks relative datum
/// counters; all ids are kept relative to B's last committed datum.
struct Monitor {
  bool a_open = false;
  bool b_open = false;
  std::uint8_t n_a = 0;      ///< datum id at A's input side (relative)
  std::uint8_t a_latched = 0;  ///< datum id stored in A (relative)

  static constexpr std::uint8_t kCap = 6;

  friend bool operator==(const Monitor&, const Monitor&) = default;

  /// Datum currently visible at B's input.
  [[nodiscard]] std::uint8_t visible() const {
    return a_open ? n_a : a_latched;
  }

  /// Applies one edge; returns an error string on violation, empty if OK.
  std::string step(bool is_a, bool rising) {
    if (is_a) {
      if (rising) {
        a_open = true;
        if (n_a >= kCap) return "datum lag unbounded (A runs ahead of B)";
        ++n_a;  // a new datum enters the transparent latch
      } else {
        a_open = false;
        a_latched = n_a;
      }
      return {};
    }
    if (rising) {
      b_open = true;
      return {};
    }
    // B- : B commits the currently visible datum; the committed sequence
    // must be exactly 1, 2, 3, ... (relative: the visible id must be 1).
    b_open = false;
    const std::uint8_t commit = visible();
    if (commit == 0) {
      return "B re-latches an already committed datum (duplicate)";
    }
    if (commit > 1) {
      return "B skips a datum (overwriting): committed id " +
             std::to_string(int(commit)) + " expected 1";
    }
    // Rebase all counters on the new committed datum.
    n_a = static_cast<std::uint8_t>(n_a - 1);
    a_latched = static_cast<std::uint8_t>(a_latched - 1);
    return {};
  }
};

struct ProductState {
  Marking marking;
  Monitor mon;
  friend bool operator==(const ProductState&, const ProductState&) = default;
};

struct ProductHash {
  std::size_t operator()(const ProductState& s) const noexcept {
    util::Fnv64 h;
    h.update({reinterpret_cast<const char*>(s.marking.data()),
              s.marking.size()});
    h.u64(static_cast<std::uint64_t>(s.mon.a_open) |
          (static_cast<std::uint64_t>(s.mon.b_open) << 1) |
          (static_cast<std::uint64_t>(s.mon.n_a) << 2) |
          (static_cast<std::uint64_t>(s.mon.a_latched) << 8));
    return h.digest();
  }
};

}  // namespace

FlowEqResult checkFlowEquivalence(const Stg& stg, SignalIdx a, SignalIdx b) {
  FlowEqResult result;
  std::unordered_map<ProductState, bool, ProductHash> seen;
  std::deque<ProductState> work;
  ProductState init{stg.initialMarking(), Monitor{}};
  seen.emplace(init, true);
  work.push_back(init);

  while (!work.empty()) {
    ProductState cur = work.front();
    work.pop_front();
    for (TransIdx t : stg.enabled(cur.marking)) {
      ProductState next;
      next.marking = stg.fire(cur.marking, t);
      next.mon = cur.mon;
      const SignalIdx sig = stg.transitionSignal(t);
      if (sig == a || sig == b) {
        std::string err = next.mon.step(sig == a, stg.transitionRising(t));
        if (!err.empty()) {
          result.holds = false;
          result.violation = err;
          result.states = seen.size();
          return result;
        }
      }
      if (seen.emplace(next, true).second) {
        work.push_back(next);
        if (seen.size() > (1u << 22)) {
          throw StgError("flow-equivalence product too large");
        }
      }
    }
  }
  result.states = seen.size();
  return result;
}

FlowEqResult checkFlowEquivalence(Protocol p) {
  Stg stg = makePairStg(p);
  // Signals were created in order A, B by makePairStg.
  return checkFlowEquivalence(stg, 0, 1);
}

ProtocolClass classifyProtocol(Protocol p) {
  ProtocolClass c;
  c.protocol = p;
  Stg pair = makePairStg(p);
  Reachability pr = analyze(pair);
  c.pair_states = pr.num_states;
  c.pair_live = pr.live;
  Reachability rr = analyze(makeRingStg(p, 4));
  c.ring_live = rr.live;
  c.flow_equivalent = checkFlowEquivalence(p).holds;
  return c;
}

}  // namespace desync::stg
