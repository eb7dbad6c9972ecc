// Symbolic flow-equivalence prover.
//
// Flow equivalence between a synchronous module and its desynchronized
// counterpart reduces to per-register projection equivalence (Paykin et
// al., arXiv 2004.10655): for every replaced flip-flop, the value it holds
// after a clock cycle — as a function of the primary inputs and the old
// register state — must equal the value its slave latch holds after one
// master/slave handshake.  Both sides are combinational functions once the
// handshake is cut at the settled pre-capture instant, so each register
// yields a miter that a small CDCL solver (src/sat) proves UNSAT — an
// exhaustive proof where the vector route (sim/flow_equivalence) only
// samples.  What the cut abstracts away — that every enable eventually
// fires and data latches are not overwritten early — is covered separately
// by a token-flow admissibility check of the chosen controller protocol
// over the region dependency graph.
//
// The prover is timing-blind by construction: it verifies the logic under
// the matched-delay timing contract and cannot see margin faults (a
// short-margin delay element fails the *vector* route only).  `--fe-mode
// both` runs the two routes as complementary checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "async/controllers.h"
#include "liberty/bound.h"
#include "sim/value.h"
#include "util/hash.h"

namespace desync::sim::symfe {

/// A satisfying miter assignment decoded into named leaf values.
struct Counterexample {
  std::vector<std::pair<std::string, bool>> inputs;  ///< primary input nets
  std::vector<std::pair<std::string, bool>> states;  ///< old register values
  std::vector<std::pair<std::string, bool>> frees;   ///< undriven nets
  bool sync_value = false;    ///< register value after the sync cycle
  bool desync_value = false;  ///< slave latch value after the handshake
  bool sync_captures = false;     ///< live clock edge (no async, ICG on)
  bool async_clear_active = false;
  bool async_preset_active = false;
};

enum class RegVerdict : std::uint8_t { kProved, kRefuted, kSkipped };

struct RegisterProof {
  std::string name;  ///< FF cell name, or "out:<port>" on comb-only designs
  RegVerdict verdict = RegVerdict::kSkipped;
  std::string reason;   ///< skip reason or refutation description
  bool trivial = false;  ///< both sides are one graph literal; no SAT call
  /// Proof reused from SymfeOptions::proof_table: an identical miter was
  /// proved before, and trivial/conflicts/decisions are that proof's.
  bool restored = false;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  double ms = 0.0;
  std::optional<Counterexample> cex;  ///< present on kRefuted
  /// Content key of the miter (docs/eco.md); absent when the register
  /// has no miter (skipped before any proof).
  std::optional<util::CacheKey> key;
};

/// Token-flow admissibility of the handshake protocol over the region DDG.
struct ProtocolReport {
  bool checked = false;
  bool admissible = true;
  std::string controller;
  int channels = 0;             ///< cross-region data channels modeled
  std::size_t states_explored = 0;
  std::string violation;
  std::vector<std::string> trace;  ///< firing sequence to the violation
};

struct SymfeReport {
  std::vector<RegisterProof> registers;
  ProtocolReport protocol;
  std::size_t proved = 0;
  std::size_t refuted = 0;
  std::size_t skipped = 0;
  std::size_t restored = 0;  ///< subset of proved: reused, not re-run
  std::size_t trivial = 0;   ///< proved fresh as one literal, no solver
  std::size_t solvers = 0;   ///< fresh solver instances (one per miter)
  std::size_t graph_nodes = 0;  ///< nodes of the pair's proof graph
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  double graph_ms = 0.0;  ///< task list, proof graph and keys
  double solve_ms = 0.0;  ///< restores, CNF and SAT (parallel wall time)
  double total_ms = 0.0;
  bool comb_only = false;  ///< no registers: output-port miters instead
  std::string note;
  [[nodiscard]] bool ok() const {
    return refuted == 0 && skipped == 0 && protocol.admissible;
  }
};

/// Region/DDG summary for the protocol check, built by the caller (the
/// flow or the fuzz oracle) so this library needs no core dependencies.
struct ProtocolInput {
  int n_groups = 0;
  std::vector<bool> active;             ///< per group: has sequential cells
  std::vector<std::vector<int>> preds;  ///< DDG predecessors per group
};

/// A stored proof: what a fresh proof of an identical miter reports.
struct StoredProof {
  bool trivial = false;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
};

struct ProofKeyHash {
  std::size_t operator()(const util::CacheKey& k) const {
    return static_cast<std::size_t>(k.lo);
  }
};

/// Proved miters by content key (core/eco.h keeps one per design).
using ProofTable =
    std::unordered_map<util::CacheKey, StoredProof, ProofKeyHash>;

struct SymfeOptions {
  std::string clock_port = "clk";
  /// Per-register conflict budget; exhausting it yields kSkipped (honest
  /// "don't know"), never a silent pass.
  std::uint64_t max_conflicts = 200000;
  async::ControllerKind controller = async::ControllerKind::kSemiDecoupled;
  std::optional<ProtocolInput> protocol;
  /// Content-addressed proof reuse (docs/eco.md): a task whose miter key
  /// (RegisterProof::key) is in the table reuses the stored proof instead
  /// of running SAT.  Equal keys mean identical miter CNF, so the reused
  /// proof is exactly what a fresh one would report.  nullptr: nothing is
  /// reused.  Must outlive the prover call.
  const ProofTable* proof_table = nullptr;
};

/// Proves projection equivalence for every replaced register (per-register
/// proofs run on the core::parallel pool; verdicts are deterministic at any
/// --jobs).  `sync_bound` is the pre-flow snapshot, `desync_bound` the
/// converted module.
SymfeReport proveFlowEquivalence(const liberty::BoundModule& sync_bound,
                                 const liberty::BoundModule& desync_bound,
                                 const SymfeOptions& options = {});

struct ReplayResult {
  bool ran = false;
  bool matches_solver = false;
  std::string detail;
  Val bitsim_value = Val::kX;  ///< captured value (kX: no capture recorded)
  Val event_value = Val::kX;
  bool bitsim_captured = false;
  bool event_captured = false;
};

/// Replays a counterexample's sync-side vector on both simulation engines:
/// primary inputs set, register state and free nets forced, one clock
/// cycle.  When the vector implies a live capture, both engines must
/// record exactly the solver's sync value; when it implies a held or
/// async-forced state, both engines must record no capture.  Callers treat
/// a mismatch as a hard failure (solver model vs simulation divergence).
ReplayResult replayCounterexample(const liberty::BoundModule& sync_bound,
                                  const std::string& register_name,
                                  const Counterexample& cex,
                                  const SymfeOptions& options = {});

/// Standalone protocol admissibility check (also used by the prover).
ProtocolReport checkProtocol(const ProtocolInput& input,
                             async::ControllerKind controller);

}  // namespace desync::sim::symfe
