// The flow-equivalence stimulus protocol, both sides.
//
// Synchronous side: hold the clock low, assert reset, release it, then run
// N full clock cycles.  Desynchronized side: hold the (disconnected) clock
// low, assert reset, release it, then let the controllers free-run until
// every element has produced the captures the comparison needs.  The
// flow's fe_check pass (core/desync.cpp) is the one user of both halves;
// the fuzz oracle and the benches read its verdict, and the engine
// cross-checks in the tests drive the event Simulator through
// runSyncStimulus, the reference.
//
// The golden (synchronous, delay-free) batches run on the bit-parallel
// engine, 64 batches per pass (sim/bitsim), and fall back to the event
// engine when the plan compiler rejects the design.  Both engines produce
// byte-identical capture sequences, so verdicts never depend on which one
// ran.
#pragma once

#include <string>
#include <vector>

#include "liberty/bound.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"

namespace desync::sim {

namespace bitsim {
class BitSim;
}

/// Simulation engine of a stuck-at campaign (dft/fault_sim.h).
enum class SyncEngine {
  kEvent,   ///< event-driven reference (sim::Simulator)
  kBitsim,  ///< compiled 64-lane cycle engine (sim::bitsim), the default
};

/// One synchronous run: clk low, reset asserted for `reset_ns`, released,
/// one half-period of settling, then `cycles` full clock cycles of
/// 2 * half_period_ns each.
struct SyncStimulus {
  std::string clock_port = "clk";
  /// Reset input; empty = the design has no reset protocol.
  std::string reset_port = "rst_n";
  bool reset_active_low = true;
  double reset_ns = 10.0;
  double half_period_ns = 1.0;
  int cycles = 16;
};

/// FE batch derivation: batch b runs the base protocol with two extra
/// cycles per index.
[[nodiscard]] int feBatchCycles(const SyncStimulus& base, std::size_t batch);

/// Drives the event-driven simulator through the protocol.
void runSyncStimulus(Simulator& s, const SyncStimulus& st);

/// Same protocol on the bit-parallel engine; lane l runs
/// `lane_cycles[l]` cycles (lanes beyond lane_cycles.size() record
/// nothing).  With an empty vector every lane runs `st.cycles`.
void runSyncStimulus(bitsim::BitSim& s, const SyncStimulus& st,
                     const std::vector<int>& lane_cycles = {});

/// Golden synchronous capture logs for `n_batches` FE batches (batch b
/// runs feBatchCycles(base, b) cycles): bit-parallel, 64 batches per pass,
/// or one event Simulator per batch on the parallel layer when the plan
/// compiler rejects the design.  Byte-identical either way and at any
/// --jobs.
[[nodiscard]] std::vector<std::vector<CaptureLog>> goldenSyncBatches(
    const liberty::BoundModule& bound, const SyncStimulus& base,
    std::size_t n_batches);

/// Bound on the desynchronized free run, in golden spans (the synchronous
/// run after reset release: one half-period plus `cycles` periods).  A
/// guard, not a tuning knob: it only ends runs in which some element never
/// produces all of its captures (a deadlock, or a clock-gated register
/// that stops before its reset-epoch extra is matched).
inline constexpr int kDesyncGuardSpans = 8;

/// Desynchronized-side reset: clk held low (the converted design no longer
/// uses it), reset asserted for 2 * reset_ns, then released.  The
/// controllers free-run from there.
void resetDesyncStimulus(Simulator& s, const SyncStimulus& st);

/// Free-runs the desynchronized design from its current state until every
/// element of `golden` that the comparison can use (a mapped counterpart
/// exists and the golden log has at least `kFlowEqMinCommon` known captures)
/// has at least its golden known-capture count plus `fe.max_initial_skip`
/// known captures, so checkFlowEquivalence can try every alignment over
/// the whole golden sequence.  Stops after kDesyncGuardSpans golden spans
/// of `st` otherwise.  Callers with their own reset or input sequence
/// (scan shifting, a separate controller reset) finish with this instead
/// of a fixed window that may cut capture logs short.
void freeRunDesyncStimulus(Simulator& s, const SyncStimulus& st,
                           const std::vector<CaptureLog>& golden,
                           const FlowEqOptions& fe = {});

/// Desynchronized side of one FE batch: resetDesyncStimulus, then
/// freeRunDesyncStimulus.
void runDesyncStimulus(Simulator& s, const SyncStimulus& st,
                       const std::vector<CaptureLog>& golden,
                       const FlowEqOptions& fe = {});

}  // namespace desync::sim
