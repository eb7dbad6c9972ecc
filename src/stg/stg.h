// Signal Transition Graphs (STGs).
//
// STGs are Petri nets whose transitions are labeled with signal edges
// ("a+" / "a-"); they specify asynchronous handshake protocols (thesis §2.2,
// Fig 2.4 and [Murata 89]).  This module provides the net model, reachability
// analysis, and the liveness / boundedness / persistency queries used to
// classify desynchronization protocols and to verify latch controllers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace desync::stg {

class StgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Index types (plain integers; the net is small and short-lived).
using SignalIdx = std::uint32_t;
using TransIdx = std::uint32_t;
using PlaceIdx = std::uint32_t;

enum class SignalKind : std::uint8_t { kInput, kOutput, kInternal };

/// A marking: token count per place.  Values saturate checks at kBound.
using Marking = std::vector<std::uint8_t>;

/// Petri net with signal-edge transition labels.
class Stg {
 public:
  static constexpr std::uint8_t kBound = 8;  ///< boundedness explosion guard

  /// Declares a signal; returns its index.
  SignalIdx addSignal(std::string name, SignalKind kind = SignalKind::kOutput);

  /// Adds a transition labeled `signal` +/-.  The same signal may label many
  /// transitions.
  TransIdx addTransition(SignalIdx signal, bool rising);
  /// Parses "a+" / "a-" (declares the signal as kOutput if unknown).
  TransIdx addTransition(std::string_view label);

  /// Adds an explicit place with `tokens` initial tokens.
  PlaceIdx addPlace(std::uint8_t tokens = 0);
  /// Arc place -> transition.
  void arcPT(PlaceIdx p, TransIdx t);
  /// Arc transition -> place.
  void arcTP(TransIdx t, PlaceIdx p);

  /// Convenience: implicit place between two transitions ("from causes to"),
  /// optionally holding an initial token.
  PlaceIdx connect(TransIdx from, TransIdx to, std::uint8_t tokens = 0);
  /// Convenience on labels: connect("a+", "b+", 1).  Transitions are created
  /// on first use.
  PlaceIdx connect(std::string_view from, std::string_view to,
                   std::uint8_t tokens = 0);

  /// Finds the (first) transition with this label, creating it if absent.
  TransIdx transitionFor(std::string_view label);

  [[nodiscard]] std::size_t numSignals() const { return signals_.size(); }
  [[nodiscard]] std::size_t numTransitions() const { return trans_.size(); }
  [[nodiscard]] std::size_t numPlaces() const { return place_tokens_.size(); }

  [[nodiscard]] const std::string& signalName(SignalIdx s) const {
    return signals_.at(s).name;
  }
  [[nodiscard]] SignalKind signalKind(SignalIdx s) const {
    return signals_.at(s).kind;
  }
  [[nodiscard]] SignalIdx transitionSignal(TransIdx t) const {
    return trans_.at(t).signal;
  }
  [[nodiscard]] bool transitionRising(TransIdx t) const {
    return trans_.at(t).rising;
  }
  [[nodiscard]] std::string transitionLabel(TransIdx t) const;

  [[nodiscard]] const Marking& initialMarking() const { return place_tokens_; }

  /// Transitions enabled in `m`.
  [[nodiscard]] std::vector<TransIdx> enabled(const Marking& m) const;
  /// Fires `t` (must be enabled) producing the successor marking.
  [[nodiscard]] Marking fire(const Marking& m, TransIdx t) const;
  [[nodiscard]] bool isEnabled(const Marking& m, TransIdx t) const;

 private:
  struct Signal {
    std::string name;
    SignalKind kind;
  };
  struct Transition {
    SignalIdx signal;
    bool rising;
    std::vector<PlaceIdx> pre;
    std::vector<PlaceIdx> post;
  };

  std::vector<Signal> signals_;
  std::vector<Transition> trans_;
  Marking place_tokens_;
  std::unordered_map<std::string, SignalIdx> signal_by_name_;
};

/// Result of exhaustive reachability analysis.
struct Reachability {
  std::size_t num_states = 0;
  bool bounded = true;         ///< no place exceeded Stg::kBound tokens
  bool deadlock_free = true;
  /// Live: net is deadlock-free, its reachability graph is one strongly
  /// connected component, and every transition fires somewhere (=> every
  /// transition can fire again from every reachable state).
  bool live = true;
  /// Output-persistent: no enabled non-input transition is ever disabled by
  /// firing another transition (the STG analogue of hazard-freedom).
  bool output_persistent = true;
  std::vector<bool> transition_fired;  ///< per transition: ever enabled
  std::string violation;               ///< description of first problem
};

/// State-space guard of analyze() and forEachEdge().
inline constexpr std::size_t kMaxReachableStates = 1u << 20;

/// Explores the full state space.  Throws StgError beyond
/// kMaxReachableStates states.
Reachability analyze(const Stg& stg);

/// Callback-driven exploration: visit(marking, enabled transition, successor)
/// for every edge of the reachability graph.  Used by trace monitors.
void forEachEdge(
    const Stg& stg,
    const std::function<void(const Marking&, TransIdx, const Marking&)>& visit);

}  // namespace desync::stg
