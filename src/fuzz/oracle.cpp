#include "fuzz/oracle.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "core/desync.h"
#include "core/parallel.h"
#include "liberty/bound.h"
#include "netlist/verilog.h"
#include "sim/symfe/symfe.h"
#include "sta/sta.h"
#include "util/rng.h"

namespace desync::fuzz {

using util::Rng;

namespace fs = std::filesystem;

FaultKind parseFaultKind(const std::string& name) {
  if (name == "none") return FaultKind::kNone;
  if (name == "fully-decoupled") return FaultKind::kFullyDecoupled;
  if (name == "short-margin") return FaultKind::kShortMargin;
  if (name == "self-test") return FaultKind::kSelfTest;
  throw std::invalid_argument("unknown fault kind: " + name);
}

std::string faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kFullyDecoupled: return "fully-decoupled";
    case FaultKind::kShortMargin: return "short-margin";
    case FaultKind::kSelfTest: return "self-test";
  }
  return "?";
}

namespace {

namespace nl = netlist;

core::DesyncOptions flowOptions(FaultKind fault,
                                const std::string& cache_dir = {}) {
  core::DesyncOptions opt;
  opt.flowdb.cache_dir = cache_dir;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  if (fault == FaultKind::kFullyDecoupled) {
    opt.control.controller = async::ControllerKind::kFullyDecoupled;
  } else if (fault == FaultKind::kShortMargin) {
    opt.control.margin = 0.02;  // far below the region critical path
  }
  return opt;
}

std::size_t countSuffix(const nl::Module& m, std::string_view suffix) {
  std::size_t n = 0;
  m.forEachCell([&](nl::CellId id) {
    std::string_view name = m.cellName(id);
    if (name.size() >= suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      ++n;
    }
  });
  return n;
}

struct FlowRun {
  // Behind a pointer: modules hold a back-reference to their owning Design,
  // so the Design object must never move while `module` is alive.
  std::unique_ptr<nl::Design> design;
  nl::Module* module = nullptr;
  core::DesyncResult result;
  std::string verilog;  ///< converted module text
  std::string sdc;
};

/// Same prover outcome: per-register proof records (verdict, trivial,
/// conflicts, decisions) in report order and the protocol verdict — a
/// reused proof must be exactly what a fresh one reports.  Trivially true
/// when neither flow ran the prover.
bool sameProofs(const core::DesyncResult::SymfeCheck& a,
                const core::DesyncResult::SymfeCheck& b) {
  if (a.ran != b.ran) return false;
  if (a.report.registers.size() != b.report.registers.size()) return false;
  for (std::size_t i = 0; i < a.report.registers.size(); ++i) {
    const sim::symfe::RegisterProof& x = a.report.registers[i];
    const sim::symfe::RegisterProof& y = b.report.registers[i];
    if (x.name != y.name || x.verdict != y.verdict ||
        x.trivial != y.trivial || x.conflicts != y.conflicts ||
        x.decisions != y.decisions) {
      return false;
    }
  }
  const sim::symfe::ProtocolReport& p = a.report.protocol;
  const sim::symfe::ProtocolReport& q = b.report.protocol;
  return p.checked == q.checked && p.admissible == q.admissible &&
         p.states_explored == q.states_explored &&
         p.violation == q.violation && p.trace == q.trace;
}

/// Parses `text` and desynchronizes the top module.  Throws what the flow
/// throws.
FlowRun runConversion(const std::string& text,
                      const liberty::Gatefile& gatefile,
                      const core::DesyncOptions& opt) {
  FlowRun run;
  run.design = std::make_unique<nl::Design>();
  nl::readVerilog(*run.design, text, gatefile);
  run.module = &run.design->top();
  run.result = core::desynchronize(*run.design, *run.module, gatefile, opt);
  run.verilog = nl::writeVerilog(*run.module);
  run.sdc = run.result.sdc.toText();
  return run;
}

// --- check 9's scripted edit ----------------------------------------------

/// Comb gates that share the exact pin interface (A[,B] -> Z in the
/// builtin libraries), so swapping the type alone yields a valid cell.
const char* const* swapGroup(std::string_view type, std::size_t* size) {
  static const char* const k2in[] = {"ND2", "NR2", "AN2", "OR2", "EO", "EN"};
  static const char* const k1in[] = {"IV", "BF"};
  for (const char* t : k2in) {
    if (type == t) { *size = 6; return k2in; }
  }
  for (const char* t : k1in) {
    if (type == t) { *size = 2; return k1in; }
  }
  *size = 0;
  return nullptr;
}

/// Replaces cell `id` with a same-pin-interface gate of a different type
/// from its swap group.  Returns the edit description.
std::string swapCell(nl::Module& m, nl::CellId id, Rng& rng) {
  std::size_t group_size = 0;
  const char* const* group = swapGroup(m.cellType(id), &group_size);
  std::string_view new_type;
  for (;;) {
    new_type = group[rng.below(group_size)];
    if (new_type != m.cellType(id)) break;
  }
  const std::string old_name(m.cellName(id));
  const std::string old_type(m.cellType(id));
  std::vector<nl::Module::PinInit> pins;
  for (const nl::PinConn& p : m.pins(id)) {
    pins.push_back({std::string(m.design().names().str(p.name)), p.dir,
                    p.net});
  }
  m.removeCell(id);
  std::string name = old_name + "_ecosw";
  while (m.findCell(name).valid()) name += "x";
  m.addCell(name, new_type, pins);
  return "cell swap: " + old_name + " " + old_type + " -> " +
         std::string(new_type);
}

/// Reconnects one combinational input pin to a constant net.
std::string tiePin(nl::Module& m, nl::CellId cell, std::size_t pin_index,
                   Rng& rng) {
  const bool value = rng.chance(50);
  const std::string pin(m.design().names().str(m.pins(cell)[pin_index].name));
  m.connectPin(cell, pin_index, m.constNet(value));
  return "constant tie: " + std::string(m.cellName(cell)) + "." + pin +
         " = 1'b" + (value ? "1" : "0");
}

/// Renames net `id` by re-homing its driver and every sink onto a fresh
/// net, then removing the original.  Callers guarantee the driver and all
/// sinks are cell pins.
std::string renameNet(nl::Module& m, nl::NetId id) {
  const std::string old_name(m.netName(id));
  std::string name = old_name + "_ecor";
  while (m.findNet(name).valid()) name += "x";
  const nl::NetId fresh = m.addNet(name);
  const nl::TermRef driver = m.net(id).driver;
  m.connectPin(driver.cell(), driver.pin, fresh);
  const std::vector<nl::NetId> assign(m.sinks(id).size(), fresh);
  m.redistributeSinks(id, assign);
  m.removeNet(id);
  return "net rename: " + old_name + " -> " + name;
}

/// Applies one seeded small edit to `m` — a cell swap, a constant tie or a
/// net rename, whichever the seed picks first with a candidate available.
/// Returns the edit description, or "" when the design offers no site.
std::string applySeededEcoEdit(nl::Module& m,
                               const liberty::Gatefile& gatefile,
                               std::uint64_t seed) {
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 1};
  const std::uint64_t first_kind = rng.below(3);
  for (std::uint64_t k = 0; k < 3; ++k) {
    switch ((first_kind + k) % 3) {
      case 0: {  // cell swap
        std::vector<nl::CellId> sites;
        m.forEachCell([&](nl::CellId id) {
          std::size_t n = 0;
          if (swapGroup(m.cellType(id), &n) != nullptr) sites.push_back(id);
        });
        if (sites.empty()) break;
        return swapCell(m, sites[rng.below(sites.size())], rng);
      }
      case 1: {  // constant tie
        std::vector<std::pair<nl::CellId, std::size_t>> sites;
        m.forEachCell([&](nl::CellId id) {
          if (gatefile.kind(m.cellType(id)) !=
              liberty::CellKind::kCombinational) {
            return;
          }
          const std::span<const nl::PinConn> pins = m.pins(id);
          for (std::size_t p = 0; p < pins.size(); ++p) {
            if (pins[p].dir == nl::PortDir::kInput && pins[p].net.valid()) {
              sites.push_back({id, p});
            }
          }
        });
        if (sites.empty()) break;
        const auto& [cell, pin] = sites[rng.below(sites.size())];
        return tiePin(m, cell, pin, rng);
      }
      case 2: {  // net rename
        std::vector<nl::NetId> sites;
        m.forEachNet([&](nl::NetId id) {
          if (!m.net(id).driver.isCellPin()) return;
          for (const nl::TermRef& s : m.sinks(id)) {
            if (!s.isCellPin()) return;
          }
          sites.push_back(id);
        });
        if (sites.empty()) break;
        return renameNet(m, sites[rng.below(sites.size())]);
      }
    }
  }
  return {};
}

}  // namespace

OracleVerdict runOracle(const std::string& verilog,
                        const liberty::Gatefile& gatefile,
                        const OracleOptions& options) {
  OracleVerdict v;
  auto fail = [&](std::string check, std::string detail) -> OracleVerdict& {
    v.ok = false;
    v.check = std::move(check);
    v.detail = std::move(detail);
    return v;
  };

  // 1. parse + input invariants -------------------------------------------
  nl::Design golden;
  try {
    nl::readVerilog(golden, verilog, gatefile);
    std::vector<std::string> problems = golden.top().checkInvariants();
    if (!problems.empty()) return fail("parse", problems.front());
  } catch (const std::exception& e) {
    return fail("parse", e.what());
  }
  v.cells = golden.top().numCells();

  // 2. the seven-pass flow, with its own FE checks at `fe_mode` ------------
  // One vector batch of exactly `cycles` cycles; check 4 reads the verdicts.
  // A throw inside fe_check or fe_prove is a flow-equivalence failure.
  FlowRun flow;
  try {
    core::DesyncOptions opt = flowOptions(options.fault);
    opt.fe.mode = options.fe_mode;
    opt.fe.batches = 1;
    opt.fe.base_cycles = options.cycles;
    flow = runConversion(verilog, gatefile, opt);
  } catch (const core::FlowError& e) {
    if (e.pass() == "fe_check") {
      return fail("flow-equivalence", std::string("simulation: ") + e.what());
    }
    if (e.pass() == "fe_prove") {
      return fail("flow-equivalence", std::string("prove: ") + e.what());
    }
    return fail("flow", "pass " + e.pass() + ": " + e.what());
  } catch (const std::exception& e) {
    return fail("flow", e.what());
  }
  v.ffs_replaced = flow.result.substitution.ffs_replaced;
  v.regions = flow.result.regions.n_groups;

  // 3. self-test fault: fake failure that is monotone under shrinking ------
  if (options.fault == FaultKind::kSelfTest) {
    const std::size_t pairs = countSuffix(*flow.module, "_Ls");
    if (pairs >= 1) {
      return fail("self-test",
                  "injected self-test fault: " + std::to_string(pairs) +
                      " latch pair(s) present");
    }
  }

  // 4. flow equivalence: the verdicts of the flow's fe_check / fe_prove -----
  // Two routes (`--fe-mode`): the sampling vector route simulates both
  // sides and compares capture sequences; the symbolic route proves
  // per-register projection equivalence with the SAT core.  The vector
  // route is defined over storage elements (thesis §2.1): a design with no
  // replaced FF has nothing to compare, so it is reported *vacuous* —
  // never a silent pass (the shrinker could otherwise "preserve" an FE
  // failure by deleting every register).  The prove route is never
  // vacuous: comb-only designs get output-port miters instead.
  if (flow.result.fe.ran && v.ffs_replaced == 0) {
    v.fe_vacuous = true;
    v.note = "flow-equivalence vector check vacuous: no flip-flops replaced";
  } else if (flow.result.fe.ran) {
    const sim::FlowEqBatchReport& fe = flow.result.fe.report;
    v.values_compared = fe.values_compared;
    if (!fe.equivalent) {
      const std::vector<std::string>& details = fe.per_batch.front().details;
      return fail("flow-equivalence",
                  details.empty() ? "mismatch" : details.front());
    }
    if (fe.elements_compared == 0) {
      return fail("flow-equivalence",
                  "no sequential element produced comparable captures");
    }
  }

  if (flow.result.symfe.ran) try {
    const sim::symfe::SymfeReport& rep = flow.result.symfe.report;
    v.registers_proved = rep.proved;
    if (!rep.ok()) {
      for (const sim::symfe::RegisterProof& p : rep.registers) {
        if (p.verdict != sim::symfe::RegVerdict::kRefuted) continue;
        std::string detail =
            "prove: register " + p.name + " refuted: " + p.reason;
        if (p.cex) {
          // Every refutation must round-trip: the decoded vector replayed
          // on both engines must reproduce exactly the solver's verdict —
          // a divergence is an encoder/solver bug, reported as such.
          const liberty::BoundModule sync_bound(golden.top(), gatefile);
          const sim::symfe::ReplayResult rr =
              sim::symfe::replayCounterexample(sync_bound, p.name, *p.cex);
          if (!rr.ran || !rr.matches_solver) {
            detail += " [internal: counterexample replay disagrees with "
                      "the solver model: " +
                      (rr.detail.empty() ? "no detail" : rr.detail) + "]";
          } else {
            detail += " (counterexample replayed on both engines)";
          }
        }
        return fail("flow-equivalence", detail);
      }
      for (const sim::symfe::RegisterProof& p : rep.registers) {
        if (p.verdict != sim::symfe::RegVerdict::kSkipped) continue;
        return fail("flow-equivalence",
                    "prove: register " + p.name + " skipped: " + p.reason);
      }
      std::string detail = "prove: " + rep.protocol.controller +
                           " protocol not admissible: " +
                           rep.protocol.violation;
      if (!rep.protocol.trace.empty()) {
        detail += " [trace:";
        for (const std::string& t : rep.protocol.trace) detail += " " + t;
        detail += "]";
      }
      return fail("flow-equivalence", detail);
    }
  } catch (const std::exception& e) {
    return fail("flow-equivalence", std::string("prove: ") + e.what());
  }

  // 5. converted-netlist invariants + latch bookkeeping --------------------
  {
    std::vector<std::string> problems = flow.module->checkInvariants();
    if (!problems.empty()) return fail("netlist", problems.front());
    const std::size_t masters = countSuffix(*flow.module, "_Lm");
    const std::size_t slaves = countSuffix(*flow.module, "_Ls");
    if (masters != v.ffs_replaced || slaves != v.ffs_replaced) {
      return fail("netlist",
                  "latch counts " + std::to_string(masters) + "/" +
                      std::to_string(slaves) + " do not match " +
                      std::to_string(v.ffs_replaced) + " replaced FFs");
    }
  }

  // 6. Verilog write -> read -> write fixpoint -----------------------------
  try {
    nl::Design d1;
    nl::readVerilog(d1, flow.verilog, gatefile);
    if (d1.top().numCells() != flow.module->numCells() ||
        d1.top().numPorts() != flow.module->numPorts()) {
      return fail("verilog-fixpoint", "cell/port counts changed on re-read");
    }
    const std::string w2 = nl::writeVerilog(d1.top());
    nl::Design d2;
    nl::readVerilog(d2, w2, gatefile);
    const std::string w3 = nl::writeVerilog(d2.top());
    if (w2 != w3) {
      return fail("verilog-fixpoint",
                  "write->read->write did not reach a fixpoint");
    }
    std::vector<std::string> problems = d2.top().checkInvariants();
    if (!problems.empty()) return fail("verilog-fixpoint", problems.front());
  } catch (const std::exception& e) {
    return fail("verilog-fixpoint", e.what());
  }

  // 7. STA / SDC sanity ----------------------------------------------------
  // Gated like flow equivalence: without a single substituted FF the flow
  // legitimately emits no latch clocks (and a cell-free module has no
  // reference period at all), so there is nothing to check.
  if (v.ffs_replaced > 0) try {
    const sta::SdcFile& sdc = flow.result.sdc;
    if (flow.result.sync_min_period_ns <= 0.0) {
      return fail("sta", "non-positive synchronous reference period");
    }
    if (sdc.clocks.size() != 2 || sdc.clocks[0].name != "ClkM" ||
        sdc.clocks[1].name != "ClkS") {
      return fail("sta", "expected exactly the ClkM/ClkS generated clocks");
    }
    for (const sta::SdcClock& c : sdc.clocks) {
      if (!(c.period_ns > 0.0) || c.targets.empty()) {
        return fail("sta", "generated clock " + c.name +
                               " has no period or no targets");
      }
    }
    sta::Sta sync_sta(golden.top(), gatefile);
    const double slack =
        sync_sta.worstSetupSlackNs(flow.result.sync_min_period_ns);
    if (slack < -1e-6) {
      return fail("sta", "negative synchronous slack " +
                             std::to_string(slack) +
                             " ns at the reference period");
    }
    sta::StaOptions so;
    so.disabled = sdc.disabled;
    sta::Sta desync_sta(*flow.module, gatefile, so);
    const double crit = desync_sta.criticalPathNs();
    if (!std::isfinite(crit) || crit <= 0.0) {
      return fail("sta", "converted-netlist critical path is " +
                             std::to_string(crit) + " ns");
    }
  } catch (const std::exception& e) {
    return fail("sta", e.what());
  }

  // 8. FlowDB: cold, warm and margin-changed cached runs are exact --------
  // All three cached flows run at the oracle's --fe-mode.  With the prover
  // on, the warm rerun must load the proof table and reuse every proof,
  // and the margin change must re-prove nothing either (the margin sizes
  // delay elements, which no miter reads); every proof record must equal
  // the cold cached run's.  With the prover off the cache directory is
  // inert: no slot is written and every run says so in a note.
  if (options.check_flowdb) {
    const fs::path base = options.scratch_dir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options.scratch_dir);
    const fs::path dir =
        base / ("drdesync-fuzz-" +
                std::to_string(static_cast<unsigned long>(::getpid())) +
                "-cache");
    std::error_code ec;
    fs::remove_all(dir, ec);
    try {
      core::DesyncOptions cached = flowOptions(options.fault, dir.string());
      cached.fe.mode = options.fe_mode;
      core::DesyncOptions moved = cached;
      moved.control.margin += 0.10;
      core::DesyncOptions moved_plain = moved;
      moved_plain.flowdb.cache_dir.clear();
      core::setThreadJobs(options.cold_jobs);
      FlowRun cold = runConversion(verilog, gatefile, cached);
      FlowRun moved_ref = runConversion(verilog, gatefile, moved_plain);
      core::setThreadJobs(options.warm_jobs);
      FlowRun warm = runConversion(verilog, gatefile, cached);
      FlowRun moved_warm = runConversion(verilog, gatefile, moved);
      core::setThreadJobs(options.restore_jobs);
      const bool prove = options.fe_mode != core::FeMode::kSim;
      const auto reproved = [](const FlowRun& run) {
        const sim::symfe::SymfeReport& rep = run.result.symfe.report;
        return rep.registers.size() - rep.restored;
      };
      const auto inertNote = [](const FlowRun& run) {
        for (const std::string& n : run.result.flow.notes()) {
          if (n.find("nothing was loaded or stored") != std::string::npos) {
            return true;
          }
        }
        return false;
      };
      if (cold.verilog != flow.verilog || cold.sdc != flow.sdc) {
        fail("flowdb", "cold cached run differs from the uncached run");
      } else if (warm.verilog != flow.verilog || warm.sdc != flow.sdc) {
        fail("flowdb",
             "warm cached run differs from the uncached run at --jobs " +
                 std::to_string(options.warm_jobs));
      } else if (moved_warm.verilog != moved_ref.verilog ||
                 moved_warm.sdc != moved_ref.sdc) {
        fail("flowdb",
             "margin-changed cached run differs from the uncached run at "
             "that margin");
      } else if (prove && (warm.result.flow.cacheStats().hits != 1 ||
                           reproved(warm) != 0 || reproved(moved_warm) != 0)) {
        fail("flowdb",
             "warm rerun hit " +
                 std::to_string(warm.result.flow.cacheStats().hits) +
                 " slot(s) and re-proved " + std::to_string(reproved(warm)) +
                 " register(s); the margin change re-proved " +
                 std::to_string(reproved(moved_warm)));
      } else if (prove && (!sameProofs(warm.result.symfe, cold.result.symfe) ||
                           !sameProofs(moved_warm.result.symfe,
                                       moved_ref.result.symfe))) {
        fail("flowdb", "reused proof records differ from fresh proofs");
      } else if (!prove && fs::exists(dir)) {
        fail("flowdb", "--cache-dir wrote " + dir.string() +
                           " although the prover is off");
      } else if (!prove && (!inertNote(cold) || !inertNote(warm))) {
        fail("flowdb", "prover-off cached run lacks the inert-cache note");
      }
    } catch (const std::exception& e) {
      core::setThreadJobs(options.restore_jobs);
      fail("flowdb", e.what());
    }
    fs::remove_all(dir, ec);
    if (!v.ok) return v;
  }

  // 9. incremental ECO: a seeded small edit re-flows byte-identically ------
  // The edit (cell swap, constant tie or net rename — docs/eco.md) is
  // applied structurally and serialized once, so the cold flow and the
  // cached flow consume the identical edited text.  The proof table is
  // primed on the ORIGINAL design; the cached run of the edited design
  // must reproduce its cold flow byte for byte.  All three flows run at
  // the oracle's --fe-mode: with the prover on, the cached run reuses the
  // proofs of every unchanged miter and its per-register proof records
  // (verdict, trivial, conflicts, decisions) and protocol verdict must
  // equal the cold flow's — a key that misses a miter input shows up as
  // a record mismatch.  When the edit makes the design un-flowable, both
  // paths must agree on failing.
  if (options.check_eco) {
    std::string edited_text;
    try {
      nl::Design edited;
      nl::readVerilog(edited, verilog, gatefile);
      v.eco_edit = applySeededEcoEdit(edited.top(), gatefile,
                                      options.eco_seed);
      if (!v.eco_edit.empty()) {
        edited_text = nl::writeVerilog(edited.top());
      } else if (v.note.empty()) {
        v.note = "eco check skipped: no applicable edit site";
      }
    } catch (const std::exception& e) {
      return fail("eco", std::string("edit application: ") + e.what());
    }
    if (!edited_text.empty()) {
      const fs::path base = options.scratch_dir.empty()
                                ? fs::temp_directory_path()
                                : fs::path(options.scratch_dir);
      const fs::path dir =
          base / ("drdesync-fuzz-" +
                  std::to_string(static_cast<unsigned long>(::getpid())) +
                  "-eco-cache");
      std::error_code ec;
      fs::remove_all(dir, ec);
      core::DesyncOptions plain = flowOptions(options.fault);
      plain.fe.mode = options.fe_mode;
      core::DesyncOptions cached = plain;
      cached.flowdb.cache_dir = dir.string();
      try {
        core::setThreadJobs(options.cold_jobs);
        bool cold_failed = false;
        std::string cold_error;
        FlowRun cold;
        try {
          cold = runConversion(edited_text, gatefile, plain);
        } catch (const std::exception& e) {
          cold_failed = true;
          cold_error = e.what();
        }
        runConversion(verilog, gatefile, cached);
        core::setThreadJobs(options.warm_jobs);
        bool eco_failed = false;
        std::string eco_error;
        FlowRun eco;
        try {
          eco = runConversion(edited_text, gatefile, cached);
        } catch (const std::exception& e) {
          eco_failed = true;
          eco_error = e.what();
        }
        core::setThreadJobs(options.restore_jobs);
        if (cold_failed != eco_failed) {
          fail("eco", cold_failed
                          ? "cold flow of the edited design failed (" +
                                cold_error + ") but the cached re-flow "
                                "succeeded [" + v.eco_edit + "]"
                          : "cached re-flow failed (" + eco_error +
                                ") but the cold flow of the edited design "
                                "succeeded [" + v.eco_edit + "]");
        } else if (!cold_failed &&
                   (nl::writeVerilog(*eco.design) !=
                        nl::writeVerilog(*cold.design) ||
                    eco.sdc != cold.sdc)) {
          // Whole-design comparison: the cached re-flow must also
          // reproduce the helper modules (delay elements, controllers)
          // byte for byte, not just the top — the CLI writes the full
          // design.
          fail("eco",
               "cached re-flow differs from the cold flow of the edited "
               "design at --jobs " + std::to_string(options.warm_jobs) +
                   " [" + v.eco_edit + "]");
        } else if (!cold_failed &&
                   !sameProofs(eco.result.symfe, cold.result.symfe)) {
          fail("eco",
               "cached re-flow's flow-equivalence proof records differ "
               "from the cold flow of the edited design at --jobs " +
                   std::to_string(options.warm_jobs) + " [" + v.eco_edit +
                   "]");
        }
      } catch (const std::exception& e) {
        core::setThreadJobs(options.restore_jobs);
        fail("eco", std::string("priming run: ") + e.what() + " [" +
                        v.eco_edit + "]");
      }
      fs::remove_all(dir, ec);
      if (!v.ok) return v;
    }
  }

  return v;
}

}  // namespace desync::fuzz
