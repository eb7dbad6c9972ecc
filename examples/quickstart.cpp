// Quickstart: desynchronize your first circuit.
//
// Takes a small synchronous counter through the whole drdesync flow —
// library digestion, region grouping, flip-flop substitution, control
// network insertion — then simulates both versions and checks
// flow-equivalence: every latch of the desynchronized circuit stores the
// exact same value sequence as its synchronous flip-flop.
#include <cstdio>

#include "core/desync.h"
#include "designs/small.h"
#include "liberty/gatefile.h"
#include "liberty/liberty_io.h"
#include "liberty/stdlib90.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"

using namespace desync;

int main() {
  std::printf("drdesync quickstart\n===================\n\n");

  // 1. Library support (thesis ch.3): parse the Liberty text and build the
  //    gatefile digest.  The synthetic 90nm library ships with the repo.
  liberty::Library library =
      liberty::readLiberty(liberty::stdLib90Text(liberty::LibVariant::kHighSpeed));
  liberty::Gatefile gatefile(library);
  std::printf("library '%s': %zu cells, simplest latch: %s\n",
              library.name.c_str(), library.size(),
              gatefile.simpleLatch().c_str());

  // 2. The synchronous circuit: an 8-bit counter (gate-level, as it would
  //    come out of synthesis).  Keep a pristine copy for comparison.
  netlist::Design design;
  designs::buildCounter(design, gatefile, 8);
  netlist::Design sync_copy;
  netlist::cloneModule(sync_copy, *design.findModule("counter"));
  std::printf("synchronous counter: %zu cells\n",
              design.findModule("counter")->numCells());

  // 3. Desynchronize.
  core::DesyncOptions options;
  options.control.reset_port = "rst_n";
  options.control.reset_active_low = true;
  core::DesyncResult result = core::desynchronize(
      design, *design.findModule("counter"), gatefile, options);
  std::printf("desynchronized: %d region(s), %zu flip-flops -> latch pairs, "
              "%zu cells total\n",
              result.regions.n_groups, result.substitution.ffs_replaced,
              design.findModule("counter")->numCells());
  for (const core::RegionControl& rc : result.control.regions) {
    std::printf("  region G%d: delay element %d levels (matched %.3f ns for "
                "a %.3f ns cloud)\n",
                rc.group, rc.delay_levels, rc.matched_delay_ns,
                rc.required_delay_ns);
  }

  // 4. Simulate the synchronous version (reset, then 50 clock cycles at
  //    twice the minimum period)...
  sim::SyncStimulus stimulus;
  stimulus.half_period_ns = result.sync_min_period_ns;
  stimulus.cycles = 50;
  sim::Simulator sync_sim(sync_copy.top(), gatefile);
  sim::runSyncStimulus(sync_sim, stimulus);

  // 5. ... and the desynchronized one: no clock at all — release reset and
  //    the controller network self-starts from the slave latches' reset
  //    data tokens.  It free-runs until every register has stored the
  //    values the comparison needs.
  sim::Simulator desync_sim(*design.findModule("counter"), gatefile);
  sim::runDesyncStimulus(desync_sim, stimulus, sync_sim.captures());

  // 6. Flow-equivalence: compare the stored value sequences.
  sim::FlowEqReport report = sim::checkFlowEquivalence(sync_sim, desync_sim);
  std::printf("\nflow-equivalence: %s (%zu elements, %zu stored values "
              "compared, %zu mismatches)\n",
              report.equivalent ? "HOLDS" : "VIOLATED",
              report.elements_compared, report.values_compared,
              report.mismatches);

  // 7. The desynchronized netlist is ordinary structural Verilog plus an
  //    SDC file — ready for any backend (thesis ch.4).
  std::printf("\nbackend constraints (SDC):\n%s",
              result.sdc.toText().c_str());
  return report.equivalent ? 0 : 1;
}
