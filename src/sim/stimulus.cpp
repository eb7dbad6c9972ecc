#include "sim/stimulus.h"

#include <algorithm>

#include "core/parallel.h"
#include "sim/bitsim/bitsim.h"
#include "trace/trace.h"

namespace desync::sim {

int feBatchCycles(const SyncStimulus& base, std::size_t batch) {
  return base.cycles + 2 * static_cast<int>(batch);
}

void runSyncStimulus(Simulator& s, const SyncStimulus& st) {
  const Val active = st.reset_active_low ? Val::k0 : Val::k1;
  const Val inactive = st.reset_active_low ? Val::k1 : Val::k0;
  s.setInput(st.clock_port, Val::k0);
  if (!st.reset_port.empty()) s.setInput(st.reset_port, active);
  s.run(s.now() + nsToPs(st.reset_ns));
  if (!st.reset_port.empty()) s.setInput(st.reset_port, inactive);
  s.run(s.now() + nsToPs(st.half_period_ns));
  for (int i = 0; i < st.cycles; ++i) {
    s.setInput(st.clock_port, Val::k1);
    s.run(s.now() + nsToPs(st.half_period_ns));
    s.setInput(st.clock_port, Val::k0);
    s.run(s.now() + nsToPs(st.half_period_ns));
  }
}

void runSyncStimulus(bitsim::BitSim& s, const SyncStimulus& st,
                     const std::vector<int>& lane_cycles) {
  const Val active = st.reset_active_low ? Val::k0 : Val::k1;
  const Val inactive = st.reset_active_low ? Val::k1 : Val::k0;
  // The cycle model holds the clock low at every settle point, so the
  // reset phase is two settles: asserted, then released.  Capture-wise
  // this matches the event protocol exactly — no FF records before the
  // first rising edge, and asynchronous controls are applied continuously
  // by settle() just as the event engine applies them over the reset span.
  if (!st.reset_port.empty()) {
    s.set(st.reset_port, active);
    s.settle();
    s.set(st.reset_port, inactive);
  }
  s.settle();
  int max_cycles = st.cycles;
  if (!lane_cycles.empty()) {
    max_cycles = 0;
    for (int c : lane_cycles) max_cycles = std::max(max_cycles, c);
  }
  for (int c = 0; c < max_cycles; ++c) {
    std::uint64_t mask = ~std::uint64_t{0};
    if (!lane_cycles.empty()) {
      mask = 0;
      for (std::size_t l = 0; l < lane_cycles.size() && l < kLanes; ++l) {
        if (c < lane_cycles[l]) mask |= std::uint64_t{1} << l;
      }
    }
    s.cycle(mask);
  }
}

std::vector<std::vector<CaptureLog>> goldenSyncBatches(
    const liberty::BoundModule& bound, const SyncStimulus& base,
    std::size_t n_batches) {
  try {
    bitsim::PlanOptions po;
    po.clock_port = base.clock_port;
    const bitsim::BitPlan plan = bitsim::compilePlan(bound, po);
    std::vector<std::vector<CaptureLog>> out(n_batches);
    for (std::size_t g0 = 0; g0 < n_batches; g0 += kLanes) {
      trace::Span span("bitsim_run", "sim");
      const std::size_t cnt = std::min<std::size_t>(kLanes, n_batches - g0);
      bitsim::BitSim s(plan);
      std::vector<int> lane_cycles(cnt);
      for (std::size_t j = 0; j < cnt; ++j) {
        lane_cycles[j] = feBatchCycles(base, g0 + j);
      }
      runSyncStimulus(s, base, lane_cycles);
      for (std::size_t j = 0; j < cnt; ++j) {
        out[g0 + j] = s.captures(static_cast<unsigned>(j));
      }
    }
    return out;
  } catch (const bitsim::BitSimError&) {
    // Design outside the cycle model: the event engine is the answer.
  }
  return core::parallelMap(n_batches, [&](std::size_t b) {
    trace::Span span("fe_golden", "sim");
    Simulator sync_sim(bound);
    SyncStimulus st = base;
    st.cycles = feBatchCycles(base, b);
    runSyncStimulus(sync_sim, st);
    return sync_sim.captures();
  });
}

void resetDesyncStimulus(Simulator& s, const SyncStimulus& st) {
  const Val active = st.reset_active_low ? Val::k0 : Val::k1;
  const Val inactive = st.reset_active_low ? Val::k1 : Val::k0;
  s.setInput(st.clock_port, Val::k0);
  if (!st.reset_port.empty()) s.setInput(st.reset_port, active);
  s.run(s.now() + nsToPs(2 * st.reset_ns));
  if (!st.reset_port.empty()) s.setInput(st.reset_port, inactive);
}

void freeRunDesyncStimulus(Simulator& s, const SyncStimulus& st,
                           const std::vector<CaptureLog>& golden,
                           const FlowEqOptions& fe) {
  // Desync capture log and known-capture target per usable element (the
  // simulator's log list is fixed at construction, so the pointers hold).
  std::vector<std::pair<const CaptureLog*, std::size_t>> targets;
  for (const CaptureLog& g : golden) {
    const std::size_t known = g.values.size() - firstKnownCapture(g.values, fe);
    if (known < kFlowEqMinCommon) continue;
    const CaptureLog* d = s.captureOf(mappedElementName(g.element));
    if (d != nullptr) targets.emplace_back(d, known + fe.max_initial_skip);
  }
  const auto done = [&] {
    for (const auto& [log, need] : targets) {
      if (log->values.size() - firstKnownCapture(log->values, fe) < need) {
        return false;
      }
    }
    return true;
  };

  const Time step = nsToPs(st.half_period_ns);
  const Time span = step * (1 + 2 * static_cast<Time>(st.cycles));
  const Time guard = s.now() + kDesyncGuardSpans * span;
  while (s.now() < guard && !done()) {
    s.run(std::min(guard, s.now() + step));
  }
}

void runDesyncStimulus(Simulator& s, const SyncStimulus& st,
                       const std::vector<CaptureLog>& golden,
                       const FlowEqOptions& fe) {
  resetDesyncStimulus(s, st);
  freeRunDesyncStimulus(s, st, golden, fe);
}

}  // namespace desync::sim
