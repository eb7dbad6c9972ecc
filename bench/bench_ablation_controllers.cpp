// Ablation — latch controller protocols (thesis §2.2, Fig 2.4).
//
// Compares the simple (Muller C-element) controller against the
// semi-decoupled controller used by the flow:
//   - speed-independent verification state counts and outcomes;
//   - the classic deadlock of the simple controller in a master/slave ring
//     of one pair (why desynchronization needs decoupling);
//   - bare-ring oscillation periods (controller overhead without logic);
//   - a deeper 3-pair semi-decoupled ring verification (the one too slow
//     for the default test suite).
#include "async/controllers.h"
#include "async/verify_adapter.h"
#include "designs/small.h"
#include "harness.h"
#include "netlist/flatten.h"
#include "stg/si_verify.h"

namespace async = desync::async;
namespace stgv = desync::stg;
using namespace bench;

namespace {

stgv::SiResult verifyRing(async::ControllerKind kind, int pairs) {
  nl::Design d;
  nl::Module& ring =
      async::buildControllerRing(d, gatefileHs(), kind, pairs);
  stgv::SiCircuit c = async::toSiCircuit(ring, gatefileHs());
  stgv::Stg closed;
  return stgv::verifySpeedIndependent(c, closed);
}

double ringPeriod(async::ControllerKind kind, int pairs) {
  nl::Design d;
  nl::Module& ring =
      async::buildControllerRing(d, gatefileHs(), kind, pairs);
  d.setTop(std::string(ring.name()));
  nl::flattenTop(d);
  sim::Simulator s(d.top(), gatefileHs());
  std::vector<sim::Time> rises;
  s.watchNet("g0", [&](sim::Time t, sim::Val v) {
    if (v == sim::Val::k1) rises.push_back(t);
  });
  s.setInput("rst", sim::Val::k1);
  s.run(sim::nsToPs(5));
  s.setInput("rst", sim::Val::k0);
  s.run(sim::nsToPs(300));
  if (rises.size() < 4) return -1;
  return static_cast<double>(rises.back() - rises[1]) /
         static_cast<double>(rises.size() - 2) / 1000.0;
}

}  // namespace

int main() {
  header("Ablation: latch controller protocols");

  row("  master/slave ring verification (speed-independent, all gate "
      "delays):");
  row("  %-18s %6s %12s %10s %10s", "controller", "pairs", "states",
      "deadlock", "hazard");
  struct Case {
    async::ControllerKind kind;
    const char* name;
    int pairs;
  };
  for (const Case& c :
       {Case{async::ControllerKind::kSimple, "simple", 1},
        Case{async::ControllerKind::kSemiDecoupled, "semi-decoupled", 1},
        Case{async::ControllerKind::kSemiDecoupled, "semi-decoupled", 2},
        Case{async::ControllerKind::kSemiDecoupled, "semi-decoupled", 3},
        Case{async::ControllerKind::kFullyDecoupled, "fully-decoupled", 1},
        Case{async::ControllerKind::kFullyDecoupled, "fully-decoupled", 2}}) {
    stgv::SiResult r = verifyRing(c.kind, c.pairs);
    row("  %-18s %6d %12zu %10s %10s", c.name, c.pairs, r.states,
        r.deadlock_free ? "none" : "DEADLOCK",
        r.hazard_free ? "free" : "HAZARD");
  }
  row("  -> the simple (Muller) controller deadlocks in the master/slave");
  row("     configuration; decoupling is required (thesis §2.2).");

  row("\n  bare ring oscillation period (no datapath, no delay elements):");
  for (int pairs : {1, 2, 4}) {
    row("  semi-decoupled,  %d pair(s): %7.3f ns", pairs,
        ringPeriod(async::ControllerKind::kSemiDecoupled, pairs));
  }
  for (int pairs : {1, 2}) {
    row("  fully-decoupled, %d pair(s): %7.3f ns", pairs,
        ringPeriod(async::ControllerKind::kFullyDecoupled, pairs));
  }

  row("\n  fully-decoupled vs semi-decoupled on a two-region pipeline");
  row("  (Fig 2.4 at gate level: more concurrency, flow-equivalence lost):");
  for (auto kind : {async::ControllerKind::kSemiDecoupled,
                    async::ControllerKind::kFullyDecoupled}) {
    nl::Design d;
    designs::buildPipe2(d, gatefileHs(), 8);
    nl::Design sync_copy;
    nl::cloneModule(sync_copy, *d.findModule("pipe2"));
    sync_copy.setTop("pipe2");
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    opt.control.controller = kind;
    core::DesyncResult res =
        core::desynchronize(d, *d.findModule("pipe2"), gatefileHs(), opt);
    auto golden = runSync(sync_copy.top(), gatefileHs(),
                          res.sync_min_period_ns * 2, 40);
    DesyncRun run = runDesync(*d.findModule("pipe2"), gatefileHs(),
                              80 * res.sync_min_period_ns);
    sim::FlowEqReport fe = sim::checkFlowEquivalence(*golden, *run.sim);
    row("  %-16s period %7.3f ns   flow-equivalent: %s",
        kind == async::ControllerKind::kSemiDecoupled ? "semi-decoupled"
                                                      : "fully-decoupled",
        run.eff_period_ns, fe.equivalent ? "yes" : "NO");
  }

  row("\n  delay-element margin sweep on the worst-case-every-cycle design");
  row("  (when does the matched delay become too short?):");
  row("  %-8s %12s %8s", "margin", "period(ns)", "flow-eq");
  for (double margin : {1.3, 1.15, 1.0, 0.6, 0.3, 0.05}) {
    nl::Design d;
    designs::buildLongPath(d, gatefileHs(), 60);
    nl::Design sync_copy;
    nl::cloneModule(sync_copy, *d.findModule("longpath"));
    sync_copy.setTop("longpath");
    core::DesyncOptions opt;
    opt.control.reset_port = "rst_n";
    opt.control.reset_active_low = true;
    opt.control.margin = margin;
    core::DesyncResult res =
        core::desynchronize(d, *d.findModule("longpath"), gatefileHs(), opt);
    auto golden =
        runSync(sync_copy.top(), gatefileHs(), res.sync_min_period_ns * 2, 40);
    DesyncRun run = runDesync(*d.findModule("longpath"), gatefileHs(),
                              60 * res.sync_min_period_ns);
    sim::FlowEqReport fe = sim::checkFlowEquivalence(*golden, *run.sim);
    row("  %-8.2f %12.3f %8s", margin, run.eff_period_ns,
        fe.equivalent ? "yes" : "NO");
  }
  return 0;
}
