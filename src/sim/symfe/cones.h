// Fan-in cone extraction: BoundModule nets -> builder literals.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "liberty/bound.h"
#include "netlist/netlist.h"

namespace desync::sim::symfe {

/// A cone could not be expressed combinationally (cycle, clock gate in a
/// data path, latch on the synchronous side, ...).  The prover turns this
/// into a kSkipped verdict for the register, never a silent pass.
class ConeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// True for the raw region enable nets G<g>_gm / G<g>_gs the controllers
/// drive.  On the desync side a cone walk cuts there: at the settled
/// pre-capture instant the handshake has granted the phase, so the enable
/// is true — and everything behind it (controllers, delay elements) is the
/// protocol's concern, checked separately via token flow.
bool isRawEnableNet(std::string_view name);

/// Longest walk below a cone root, in nets (a guard, not a tuning knob:
/// real combinational paths are tens of levels deep).
inline constexpr std::uint32_t kMaxConeDepth = 20000;

/// Memoized recursive walk of combinational fan-in cones, generic over
/// what it builds: the Encoder (CNF literals, one walker per proof) or the
/// KeyBuilder (content keys, one walker per module shared by every
/// register).  The net classification lives only here, so a proof key
/// covers exactly the cones a proof reads.
///
/// Shared leaf keys unify the two sides:
///   "in:<net>"  primary input (port-driven net)
///   "reg:<ff>"  old register state (sync FF Q / desync *_Ls latch Q)
///   "net:<net>" undriven net (free variable)
/// Desync-side rules: raw enable nets cut to constant true, *_Ls slave
/// latches become state leaves, every other substitution latch (_Lm,
/// _cenLm, _cenLs) is transparent at the pre-capture instant.
///
/// A Builder provides `Lit` (with operator~), constLit(bool),
/// leaf(key), table(truth_table, inputs) and failed(why) — the Encoder
/// throws ConeError there, the KeyBuilder returns an unusable key — and
/// `kModuleWide`: whether one walker serves a whole module (a dense memo
/// over every net) or a single cone (a hash-map memo).
template <typename Builder>
class ConeWalker {
 public:
  using Lit = typename Builder::Lit;

  ConeWalker(const liberty::BoundModule& bound, Builder& builder,
             bool desync_side)
      : bound_(bound), module_(bound.module()), builder_(builder),
        desync_side_(desync_side) {
    if constexpr (Builder::kModuleWide) {
      dense_.resize(module_.netCapacity());
    }
  }

  /// Literal of `net`'s cone.  A cone more than kMaxConeDepth nets deep
  /// fails; the test is on the cone's height, so its outcome does not
  /// depend on what an earlier call of this walker already memoized.
  Lit literalFor(netlist::NetId net);

 private:
  enum class State : std::uint8_t { kNew, kExpanding, kDone };
  struct Entry {
    Lit lit;
    std::uint32_t height = 0;  ///< longest walk below this net
    State state = State::kNew;
  };
  Entry walk(netlist::NetId net, std::uint32_t depth);
  Entry compute(netlist::NetId net, std::uint32_t depth);
  Entry& memo(netlist::NetId net) {
    if constexpr (Builder::kModuleWide) {
      return dense_[net.index()];
    } else {
      return sparse_[net.value];
    }
  }

  const liberty::BoundModule& bound_;
  const netlist::Module& module_;
  Builder& builder_;
  bool desync_side_;
  std::vector<Entry> dense_;
  std::unordered_map<std::uint32_t, Entry> sparse_;
  std::vector<Lit> inputs_;  ///< scratch stack of gate input literals
};

}  // namespace desync::sim::symfe
