// Speed-independent verification of gate-level asynchronous controllers.
//
// Latch controllers must be hazard-free under arbitrary gate delays (thesis
// §3.1.3: "specially designed circuits which need to be hazard-free").  This
// verifier explores the product of a gate-level circuit (every gate an
// independent speed-independent process) with an STG environment spec and
// checks:
//   - conformance: the circuit never produces an interface output edge the
//     spec does not allow;
//   - semi-modularity (hazard freedom): an excited gate is never disabled by
//     another transition before it fires;
//   - deadlock freedom of the closed system.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "stg/stg.h"

namespace desync::stg {

/// One gate of the circuit under verification.  A gate may list its own
/// output among its inputs (feedback, e.g. C-element keepers).
struct GateSpec {
  std::string output;               ///< signal this gate drives
  std::vector<std::string> inputs;  ///< consumed signals, in eval order
  std::function<bool(const std::vector<bool>&)> eval;
  bool initial = false;             ///< post-reset output value
};

/// A closed circuit: environment-driven inputs plus gates.
struct SiCircuit {
  std::vector<std::string> inputs;  ///< signals the environment drives
  std::vector<bool> input_initial;  ///< their post-reset values
  std::vector<GateSpec> gates;
};

struct SiResult {
  bool ok() const { return conforms && hazard_free && deadlock_free; }
  bool conforms = true;
  bool hazard_free = true;
  bool deadlock_free = true;
  /// Informational: false when some gate was already excited in the initial
  /// state (normal for closed self-starting networks, suspicious for open
  /// controllers verified standalone).
  bool stable_start = true;
  std::size_t states = 0;
  std::string violation;
  /// Event labels from the initial state to the state where the violation
  /// was detected (empty when ok).
  std::vector<std::string> trace;
};

/// State-space guard of verifySpeedIndependent (a closed semi-decoupled
/// ring of three pairs explores about 2.0M states).
inline constexpr std::size_t kMaxSiStates = 1u << 22;

/// Verifies `circuit` against `spec`.  Signals of the spec marked kInput are
/// driven by the environment (must appear in circuit.inputs); signals marked
/// kOutput must be driven by circuit gates whose edges are then checked
/// against the spec.  Gates driving signals absent from the spec are
/// internal and unconstrained (but still checked for semi-modularity).
/// Throws StgError beyond kMaxSiStates states.
SiResult verifySpeedIndependent(const SiCircuit& circuit, const Stg& spec);

}  // namespace desync::stg
