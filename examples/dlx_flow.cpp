// The full EDA flow on the DLX RISC CPU (thesis ch.4-5, Fig 5.1).
//
// Specification -> synthesis(-like netlist) -> DFT scan insertion ->
// desynchronization -> placement & routing -> simulation, producing the
// artifacts an industrial flow would: Verilog netlists, SDC constraints,
// BLIF export and area/timing reports.  Output files land in
// ./dlx_flow_out/.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/desync.h"
#include "designs/cpu.h"
#include "dft/scan.h"
#include "liberty/liberty_io.h"
#include "liberty/stdlib90.h"
#include "netlist/blif.h"
#include "netlist/flatten.h"
#include "netlist/verilog.h"
#include "pnr/pnr.h"
#include "sim/flow_equivalence.h"
#include "sim/simulator.h"
#include "sim/stimulus.h"
#include "sim/vcd.h"

using namespace desync;
using sim::Val;

int main() {
  const std::filesystem::path out = "dlx_flow_out";
  std::filesystem::create_directories(out);
  std::printf("DLX desynchronization flow (artifacts in %s/)\n\n",
              out.c_str());

  liberty::Library library =
      liberty::makeStdLib90(liberty::LibVariant::kHighSpeed);
  liberty::Gatefile gatefile(library);
  liberty::writeLibertyFile(library, (out / "core9like_hs.lib").string());
  std::ofstream(out / "gatefile.txt") << gatefile.toText();

  // Synthesis: the generator emits the post-synthesis gate-level netlist.
  netlist::Design design;
  designs::buildCpu(design, gatefile, designs::dlxConfig());
  netlist::Module& dlx = *design.findModule("dlx");
  std::printf("post-synthesis: %zu cells, %zu nets\n", dlx.numCells(),
              dlx.numNets());

  // DFT: scan chain insertion (thesis §4.3), before desynchronization.
  dft::ScanResult scan = dft::insertScan(dlx, gatefile);
  std::printf("DFT: scan chain of %zu flip-flops\n", scan.chain_length);
  netlist::writeVerilogFile(design, (out / "dlx_scan.v").string());

  netlist::Design sync_copy;
  netlist::cloneModule(sync_copy, dlx);
  sync_copy.setTop("dlx");

  // Desynchronization with the paper's manual 4-stage regions.
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.manual_seq_groups = {{"pc_", "ifid_"},
                           {"idex_"},
                           {"exmem_", "red_"},
                           {"rf_", "dmem_"}};
  core::DesyncResult res = core::desynchronize(design, dlx, gatefile, opt);
  std::printf("desynchronization: %d regions, %zu flip-flops substituted\n",
              res.regions.n_groups, res.substitution.ffs_replaced);
  for (const core::RegionControl& rc : res.control.regions) {
    std::printf("  G%d: %-28s delay element %3d levels (cloud %.2f ns)\n",
                rc.group, rc.master_cell.c_str(), rc.delay_levels,
                rc.required_delay_ns);
  }
  netlist::writeVerilogFile(design, (out / "dlx_desync.v").string());
  netlist::writeBlifFile(design, (out / "dlx_desync.blif").string());
  std::ofstream(out / "dlx_desync.sdc") << res.sdc.toText();

  // Backend.
  pnr::PnrOptions po;
  po.clock_ports = {};
  pnr::PnrResult layout = pnr::placeAndRoute(dlx, gatefile, po);
  std::printf("backend: core %.0f um^2, utilization %.1f%%, wirelength "
              "%.0f um\n",
              layout.core_size, layout.utilization * 100,
              layout.total_hpwl_um);

  // Simulation of both versions + flow-equivalence + a waveform.
  // Scan stays off; the shared protocol drives clock and reset.
  sim::SyncStimulus stimulus;
  stimulus.half_period_ns = res.sync_min_period_ns;
  stimulus.cycles = 60;
  sim::Simulator sync_sim(sync_copy.top(), gatefile);
  sync_sim.setInput("scan_en", Val::k0);
  sync_sim.setInput("scan_in", Val::k0);
  sim::runSyncStimulus(sync_sim, stimulus);

  sim::Simulator desync_sim(dlx, gatefile);
  std::vector<sim::Time> rises;
  desync_sim.watchNet("G1_gm", [&](sim::Time t, Val v) {
    if (v == Val::k1) rises.push_back(t);
  });
  {
    sim::VcdWriter vcd(desync_sim, (out / "dlx_desync.vcd").string(),
                       {"G1_gm", "G1_gs", "G2_gm", "G3_gm", "G4_gm"});
    desync_sim.setInput("scan_en", Val::k0);
    desync_sim.setInput("scan_in", Val::k0);
    sim::runDesyncStimulus(desync_sim, stimulus, sync_sim.captures());
  }
  double period = rises.size() > 4
                      ? static_cast<double>(rises.back() - rises[2]) /
                            static_cast<double>(rises.size() - 3) / 1000.0
                      : -1;
  std::printf("simulation: sync min period %.3f ns, desync effective period "
              "%.3f ns\n",
              res.sync_min_period_ns, period);

  sim::FlowEqReport fe = sim::checkFlowEquivalence(sync_sim, desync_sim);
  std::printf("flow-equivalence: %s (%zu elements, %zu values)\n",
              fe.equivalent ? "HOLDS" : "VIOLATED", fe.elements_compared,
              fe.values_compared);
  if (!fe.equivalent) {
    for (const std::string& d : fe.details) std::printf("  %s\n", d.c_str());
  }
  return fe.equivalent ? 0 : 1;
}
