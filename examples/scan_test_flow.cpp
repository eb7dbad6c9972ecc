// Scan test flow: DFT before desynchronization (thesis §4.3, Fig 2.1).
//
// Inserts a scan chain into a synchronous design, extracts test vectors by
// random-pattern stuck-at fault simulation, then desynchronizes the scan
// design and shows the chain still shifts — flow-equivalence means the
// same vectors test the desynchronized part (§2.1: "all of the
// conventional synchronous testing techniques can be applied in the same
// way").
#include <cstdio>

#include "core/desync.h"
#include "designs/small.h"
#include "dft/fault_sim.h"
#include "dft/scan.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

using namespace desync;
using sim::Val;

int main() {
  std::printf("scan test flow\n==============\n\n");
  liberty::Library library =
      liberty::makeStdLib90(liberty::LibVariant::kHighSpeed);
  liberty::Gatefile gatefile(library);

  // Synchronous design + scan insertion.
  netlist::Design d;
  designs::buildPipe2(d, gatefile, 8);
  netlist::Module& m = *d.findModule("pipe2");
  dft::ScanResult scan = dft::insertScan(m, gatefile);
  std::printf("scan chain inserted: %zu flip-flops\n", scan.chain_length);

  // Test vector extraction: random-pattern stuck-at fault simulation.
  dft::FaultSimOptions fopt;
  fopt.n_patterns = 12;
  dft::FaultSimResult faults = dft::runScanFaultSim(m, gatefile, scan, fopt);
  std::printf("fault simulation: %zu stuck-at faults, %zu detected "
              "(%.1f%% coverage) with %zu patterns\n",
              faults.total, faults.detected, faults.coverage() * 100,
              faults.patterns.size());

  // Desynchronize the scan design.
  netlist::Design sync_copy;
  netlist::cloneModule(sync_copy, m);
  sync_copy.setTop("pipe2");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  core::DesyncResult res = core::desynchronize(d, m, gatefile, opt);
  std::printf("desynchronized: %d regions (scan flip-flops became latch "
              "pairs with a scan mux, Fig 3.1a)\n",
              res.regions.n_groups);

  // Shift a pattern through both versions and compare stored sequences:
  // scan shifting is just another data flow, so flow-equivalence covers it.
  // The shared protocol resets both; the scan_in stream changes every
  // cycle, so the shift cycles themselves are driven here.
  constexpr int kShifts = 32;
  sim::SyncStimulus stimulus;
  stimulus.half_period_ns = res.sync_min_period_ns;
  stimulus.cycles = 0;
  const sim::Time half = sim::nsToPs(res.sync_min_period_ns);
  sim::Simulator sync_sim(sync_copy.top(), gatefile);
  sync_sim.setInput("scan_en", Val::k1);
  sync_sim.setInput("scan_in", Val::k1);
  sim::runSyncStimulus(sync_sim, stimulus);
  for (int i = 0; i < kShifts; ++i) {
    sync_sim.setInput("scan_in", (i % 5 < 2) ? Val::k1 : Val::k0);
    sync_sim.setInput("clk", Val::k1);
    sync_sim.run(sync_sim.now() + half);
    sync_sim.setInput("clk", Val::k0);
    sync_sim.run(sync_sim.now() + half);
  }
  stimulus.cycles = kShifts;  // the span the desync guard is measured in

  sim::Simulator desync_sim(m, gatefile);
  desync_sim.setInput("scan_en", Val::k1);
  desync_sim.setInput("scan_in", Val::k1);
  sim::resetDesyncStimulus(desync_sim, stimulus);
  // Feed the same scan_in stream, paced by the self-timed handshakes: a new
  // bit after each capture of the first chain element's master latch.
  const sim::CaptureLog* first = nullptr;
  for (const auto& log : desync_sim.captures()) {
    if (log.element == scan.chain.front() + "_Lm") first = &log;
  }
  int shifts = 0;
  std::size_t seen = first != nullptr ? first->values.size() : 0;
  while (shifts < kShifts && desync_sim.now() < sim::nsToPs(4000)) {
    desync_sim.run(desync_sim.now() + sim::nsToPs(1));
    if (first != nullptr && first->values.size() > seen) {
      seen = first->values.size();
      ++shifts;
      desync_sim.setInput("scan_in",
                          (shifts % 5 < 2) ? Val::k1 : Val::k0);
    }
  }
  // The last bit stays on scan_in while the rest of the chain catches up.
  sim::freeRunDesyncStimulus(desync_sim, stimulus, sync_sim.captures());
  std::printf("desynchronized scan shift: %d self-timed shift cycles\n",
              shifts);

  sim::FlowEqReport fe = sim::checkFlowEquivalence(sync_sim, desync_sim);
  std::printf("scan-path flow-equivalence: %s (%zu values compared)\n",
              fe.equivalent ? "HOLDS" : "VIOLATED", fe.values_compared);
  return fe.equivalent ? 0 : 1;
}
