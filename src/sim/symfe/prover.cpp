// Per-register miter construction, proof orchestration, counterexample
// decode and replay (see symfe.h for the projection-equivalence statement).
//
// Miter shape per register, mirroring both engines' sequential update
// exactly (bitsim nextStateWord / event evalSeq):
//
//   next = sync_override( scan_mux( D ) )          -- scan first, sync wins
//   vs   = clear ? 0 : preset ? 1 : Es ? next : q  -- async dominates, then
//                                                     hold when gated off
//   vd   = Ed ? SD : q                             -- slave latch projection
//
// where Es is the register's clock-gate enable cone (constant true for a
// root-clocked FF) and Ed/SD are the G/D cones of the *_Ls slave latch.
// UNSAT of (vs != vd) proves the projection; a model decodes into a named
// input/state vector that replayCounterexample() re-runs on both simulation
// engines as an independent end-to-end check of the encoding itself.
#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "sim/bitsim/bitsim.h"
#include "sim/simulator.h"
#include "sim/symfe/cones.h"
#include "sim/symfe/encoder.h"
#include "sim/symfe/symfe.h"
#include "trace/trace.h"

namespace desync::sim::symfe {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One unit of proof work: a replaced register, or (comb-only designs) an
/// output port compared as a plain combinational miter.
struct Task {
  std::string name;  ///< FF cell name, or "out:<port>"
  netlist::CellId sync_cell;
  netlist::CellId desync_cell;  ///< the *_Ls slave; invalid => skip
  bool comb_output = false;
  netlist::NetId sync_net;    ///< output-port net (comb tasks)
  netlist::NetId desync_net;
};

bool litValue(const sat::Solver& solver, sat::Lit l) {
  return solver.modelValue(sat::varOf(l)) != sat::signOf(l);
}

netlist::NetId portNetOf(const netlist::Module& m, std::string_view port) {
  const netlist::PortId pid = m.findPort(port);
  return pid.valid() ? m.port(pid).net : netlist::NetId{};
}

/// Independent scalar evaluation of a desync-side net under a decoded
/// model.  Same classification rules as ConeExtractor, but in the value
/// domain with sim/value.h primitives — no CNF involved, so agreement with
/// the solver model cross-checks the whole Tseitin pipeline.
class DesyncEval {
 public:
  DesyncEval(const liberty::BoundModule& bound, const Counterexample& cex)
      : bound_(bound), module_(bound.module()) {
    for (const auto& [k, v] : cex.inputs) leaves_["in:" + k] = v;
    for (const auto& [k, v] : cex.states) leaves_["reg:" + k] = v;
    for (const auto& [k, v] : cex.frees) leaves_["net:" + k] = v;
  }

  Val net(netlist::NetId id) { return walk(id, 0); }

  Val leaf(const std::string& key) const {
    const auto it = leaves_.find(key);
    return it == leaves_.end() ? Val::kX : fromBool(it->second);
  }

 private:
  Val walk(netlist::NetId id, int depth) {
    if (depth > 20000) return Val::kX;
    if (const auto it = memo_.find(id.value); it != memo_.end()) {
      return it->second;
    }
    const Val v = compute(id, depth);
    memo_.emplace(id.value, v);
    return v;
  }

  Val compute(netlist::NetId id, int depth) {
    const netlist::Net& n = module_.net(id);
    const std::string name(module_.netName(id));
    if (isRawEnableNet(name)) return Val::k1;
    switch (n.driver.kind) {
      case netlist::TermKind::kConst0:
        return Val::k0;
      case netlist::TermKind::kConst1:
        return Val::k1;
      case netlist::TermKind::kPort:
        return leaf("in:" + name);
      case netlist::TermKind::kNone:
        return leaf("net:" + name);
      case netlist::TermKind::kCellPin:
        break;
    }
    const netlist::CellId cid = n.driver.cell();
    const std::string cname(module_.cellName(cid));
    const liberty::BoundType* bt = bound_.typeOf(cid);
    if (bt == nullptr) return Val::kX;
    switch (bt->kind) {
      case liberty::CellKind::kCombinational: {
        for (const liberty::BoundOutput& o : bt->outputs) {
          if (bound_.pinNet(cid, o.pin) != id) continue;
          Val in[6];
          const unsigned nin =
              std::min<unsigned>(6, static_cast<unsigned>(o.inputs.size()));
          for (unsigned i = 0; i < nin; ++i) {
            const netlist::NetId in_net = bound_.pinNet(cid, o.inputs[i]);
            in[i] = in_net.valid() ? walk(in_net, depth + 1) : Val::kX;
          }
          return evalTable3(o.table, in, nin);
        }
        return Val::kX;
      }
      case liberty::CellKind::kFlipFlop: {
        const Val l = leaf("reg:" + cname);
        if (bt->seq_pins.qn >= 0 &&
            bound_.rolePinNet(cid, bt->seq_pins.qn) == id) {
          return invert(l);
        }
        return l;
      }
      case liberty::CellKind::kLatch: {
        if (cname.size() > 3 &&
            cname.compare(cname.size() - 3, 3, "_Ls") == 0) {
          const Val l = leaf("reg:" + cname.substr(0, cname.size() - 3));
          if (bt->seq_pins.qn >= 0 &&
              bound_.rolePinNet(cid, bt->seq_pins.qn) == id) {
            return invert(l);
          }
          return l;
        }
        const netlist::NetId d = bound_.rolePinNet(cid, bt->seq_pins.data);
        return d.valid() ? walk(d, depth + 1) : Val::kX;
      }
      case liberty::CellKind::kClockGate:
        return Val::kX;
    }
    return Val::kX;
  }

  const liberty::BoundModule& bound_;
  const netlist::Module& module_;
  std::unordered_map<std::string, bool> leaves_;
  std::unordered_map<std::uint32_t, Val> memo_;
};

Counterexample decodeModel(const sat::Solver& solver, const Encoder& enc,
                           sat::Lit vs, sat::Lit vd, sat::Lit clear_active,
                           sat::Lit preset_active, sat::Lit es) {
  Counterexample cex;
  for (const auto& [key, var] : enc.leaves()) {
    const bool v = solver.modelValue(var);
    if (key.rfind("in:", 0) == 0) {
      cex.inputs.emplace_back(key.substr(3), v);
    } else if (key.rfind("reg:", 0) == 0) {
      cex.states.emplace_back(key.substr(4), v);
    } else if (key.rfind("net:", 0) == 0) {
      cex.frees.emplace_back(key.substr(4), v);
    }
  }
  cex.sync_value = litValue(solver, vs);
  cex.desync_value = litValue(solver, vd);
  cex.async_clear_active = litValue(solver, clear_active);
  cex.async_preset_active = litValue(solver, preset_active);
  cex.sync_captures = !cex.async_clear_active && !cex.async_preset_active &&
                      litValue(solver, es);
  return cex;
}

/// Adds the miter clauses, solves, and fills the verdict.  `recheck`
/// re-evaluates the desync-side value under the model through an
/// independent scalar path; disagreement marks the proof "internal:".
template <typename Recheck>
void finishMiter(RegisterProof& proof, sat::Solver& solver, Encoder& enc,
                 sat::Lit vs, sat::Lit vd, sat::Lit clear_active,
                 sat::Lit preset_active, sat::Lit es,
                 const SymfeOptions& opt, Recheck&& recheck) {
  if (vs == vd) {
    proof.trivial = true;
    proof.verdict = RegVerdict::kProved;
    return;
  }
  solver.addClause(vs, vd);
  solver.addClause(~vs, ~vd);
  sat::Limits limits;
  limits.max_conflicts = opt.max_conflicts;
  const sat::Verdict v = solver.solve(limits);
  proof.conflicts = solver.stats().conflicts;
  proof.decisions = solver.stats().decisions;
  if (v == sat::Verdict::kUnsat) {
    proof.verdict = RegVerdict::kProved;
    return;
  }
  if (v == sat::Verdict::kUnknown) {
    proof.verdict = RegVerdict::kSkipped;
    proof.reason = "conflict budget (" + std::to_string(opt.max_conflicts) +
                   ") exhausted";
    return;
  }
  proof.verdict = RegVerdict::kRefuted;
  if (!opt.want_counterexample) {
    proof.reason = "miter satisfiable";
    return;
  }
  Counterexample cex =
      decodeModel(solver, enc, vs, vd, clear_active, preset_active, es);
  const Val scalar = recheck(cex);
  if (scalar != fromBool(cex.desync_value)) {
    proof.reason =
        "internal: desync-side scalar re-evaluation disagrees with the "
        "solver model";
  } else {
    proof.reason = std::string("projection differs: sync yields ") +
                   (cex.sync_value ? "1" : "0") + ", desync yields " +
                   (cex.desync_value ? "1" : "0");
  }
  proof.cex = std::move(cex);
}

RegisterProof proveRegister(const liberty::BoundModule& sb,
                            const liberty::BoundModule& db, const Task& task,
                            netlist::NetId sync_clk,
                            const SymfeOptions& opt) {
  RegisterProof proof;
  proof.name = task.name;
  const netlist::Module& sm = sb.module();

  if (!task.desync_cell.valid()) {
    proof.reason =
        "no desynchronized counterpart (" + task.name + "_Ls not found)";
    return proof;
  }

  sat::Solver solver;
  Encoder enc(solver);
  ConeExtractor sync_cone(sb, enc, /*desync_side=*/false);
  ConeExtractor desync_cone(db, enc, /*desync_side=*/true);

  const liberty::BoundType& bt = sb.typeOrThrow(task.sync_cell);
  const liberty::SeqClass& sc = *bt.seq;
  const liberty::BoundSeqPins& bp = bt.seq_pins;

  const sat::Lit q_old = enc.leaf("reg:" + task.name);

  // Next-state function: data, scan mux on top, synchronous set/reset on
  // top of that — the engines apply them in exactly this order.
  const netlist::NetId d_net = sb.rolePinNet(task.sync_cell, bp.data);
  if (!d_net.valid()) {
    proof.reason = "unconnected data pin";
    return proof;
  }
  sat::Lit next = sync_cone.literalFor(d_net);
  if (bp.scan_en >= 0) {
    const netlist::NetId se_net = sb.rolePinNet(task.sync_cell, bp.scan_en);
    if (se_net.valid()) {
      const netlist::NetId si_net = sb.rolePinNet(task.sync_cell, bp.scan_in);
      if (!si_net.valid()) {
        proof.reason = "scan enable connected but scan input is not";
        return proof;
      }
      next = enc.iteLit(sync_cone.literalFor(se_net),
                        sync_cone.literalFor(si_net), next);
    }
  }
  if (bp.sync >= 0) {
    const netlist::NetId sn = sb.rolePinNet(task.sync_cell, bp.sync);
    if (sn.valid()) {
      sat::Lit active = sync_cone.literalFor(sn);
      if (sc.sync_active_low) active = ~active;
      next = enc.iteLit(active, enc.constLit(sc.sync_is_set), next);
    }
  }

  // Capture enable: constant true for a root-clocked FF, the E cone of the
  // driving ICG otherwise (one gating level, same contract as the bitsim
  // plan compiler).
  const netlist::NetId clk_net = sb.rolePinNet(task.sync_cell, bp.clock);
  if (!clk_net.valid() || !sync_clk.valid()) {
    proof.reason = "register clock does not resolve to the clock port";
    return proof;
  }
  sat::Lit es = enc.constLit(true);
  if (clk_net != sync_clk) {
    const netlist::Net& cn = sm.net(clk_net);
    const liberty::BoundType* it =
        cn.driver.isCellPin() ? sb.typeOf(cn.driver.cell()) : nullptr;
    if (it == nullptr || it->kind != liberty::CellKind::kClockGate) {
      proof.reason = "register clock does not resolve to the clock port";
      return proof;
    }
    const netlist::CellId icg = cn.driver.cell();
    if (sb.rolePinNet(icg, it->seq_pins.clock) != sync_clk) {
      proof.reason = "multi-level clock gating is out of scope";
      return proof;
    }
    const netlist::NetId e_net = sb.rolePinNet(icg, it->seq_pins.data);
    if (!e_net.valid()) {
      proof.reason = "clock gate has no enable cone";
      return proof;
    }
    es = sync_cone.literalFor(e_net);
  }

  sat::Lit vs = enc.iteLit(es, next, q_old);
  sat::Lit clear_active = enc.constLit(false);
  if (bp.clear >= 0) {
    const netlist::NetId n = sb.rolePinNet(task.sync_cell, bp.clear);
    if (n.valid()) {
      clear_active = sync_cone.literalFor(n);
      if (sc.async_clear_active_low) clear_active = ~clear_active;
    }
  }
  sat::Lit preset_active = enc.constLit(false);
  if (bp.preset >= 0) {
    const netlist::NetId n = sb.rolePinNet(task.sync_cell, bp.preset);
    if (n.valid()) {
      preset_active = sync_cone.literalFor(n);
      if (sc.async_preset_active_low) preset_active = ~preset_active;
    }
  }
  // Async dominates everything (both engines branch clear before preset).
  vs = enc.iteLit(preset_active, enc.constLit(true), vs);
  vs = enc.iteLit(clear_active, enc.constLit(false), vs);

  // Desync side: the slave latch after the handshake — its G cone cut at
  // the raw enables (granted => transparent), data through the master.
  const liberty::BoundType* lt = db.typeOf(task.desync_cell);
  if (lt == nullptr || lt->kind != liberty::CellKind::kLatch) {
    proof.reason = "desynchronized counterpart is not a latch";
    return proof;
  }
  const netlist::NetId g_net = db.rolePinNet(task.desync_cell,
                                             lt->seq_pins.clock);
  const netlist::NetId sd_net = db.rolePinNet(task.desync_cell,
                                              lt->seq_pins.data);
  if (!g_net.valid() || !sd_net.valid()) {
    proof.reason = "slave latch missing enable or data connection";
    return proof;
  }
  const sat::Lit ed = desync_cone.literalFor(g_net);
  const sat::Lit sd = desync_cone.literalFor(sd_net);
  const sat::Lit vd = enc.iteLit(ed, sd, q_old);

  finishMiter(proof, solver, enc, vs, vd, clear_active, preset_active, es,
              opt, [&](const Counterexample& cex) {
                DesyncEval ev(db, cex);
                const Val g = ev.net(g_net);
                if (g == Val::k1) return ev.net(sd_net);
                if (g == Val::k0) return ev.leaf("reg:" + task.name);
                return Val::kX;
              });
  return proof;
}

RegisterProof proveOutput(const liberty::BoundModule& sb,
                          const liberty::BoundModule& db, const Task& task,
                          const SymfeOptions& opt) {
  RegisterProof proof;
  proof.name = task.name;
  if (!task.desync_net.valid()) {
    proof.reason = "output port missing from the desynchronized module";
    return proof;
  }
  sat::Solver solver;
  Encoder enc(solver);
  ConeExtractor sync_cone(sb, enc, /*desync_side=*/false);
  ConeExtractor desync_cone(db, enc, /*desync_side=*/true);
  const sat::Lit vs = sync_cone.literalFor(task.sync_net);
  const sat::Lit vd = desync_cone.literalFor(task.desync_net);
  finishMiter(proof, solver, enc, vs, vd, enc.constLit(false),
              enc.constLit(false), enc.constLit(true), opt,
              [&](const Counterexample& cex) {
                DesyncEval ev(db, cex);
                return ev.net(task.desync_net);
              });
  return proof;
}

RegisterProof proveTask(const liberty::BoundModule& sb,
                        const liberty::BoundModule& db, const Task& task,
                        netlist::NetId sync_clk, const SymfeOptions& opt) {
  trace::Span span("symfe_prove", "sim");
  const auto t0 = Clock::now();
  RegisterProof proof;
  try {
    proof = task.comb_output ? proveOutput(sb, db, task, opt)
                             : proveRegister(sb, db, task, sync_clk, opt);
  } catch (const ConeError& e) {
    proof.name = task.name;
    proof.verdict = RegVerdict::kSkipped;
    proof.reason = e.what();
  } catch (const std::exception& e) {
    proof.name = task.name;
    proof.verdict = RegVerdict::kSkipped;
    proof.reason = std::string("internal: ") + e.what();
  }
  proof.ms = msSince(t0);
  return proof;
}

}  // namespace

SymfeReport proveFlowEquivalence(const liberty::BoundModule& sync_bound,
                                 const liberty::BoundModule& desync_bound,
                                 const SymfeOptions& options) {
  const auto t0 = Clock::now();
  SymfeReport rep;
  const netlist::Module& sm = sync_bound.module();
  const netlist::Module& dm = desync_bound.module();
  const netlist::NetId sync_clk = portNetOf(sm, options.clock_port);

  std::vector<Task> tasks;
  sm.forEachCell([&](netlist::CellId cid) {
    const liberty::BoundType* bt = sync_bound.typeOf(cid);
    if (bt == nullptr || bt->kind != liberty::CellKind::kFlipFlop) return;
    Task t;
    t.name = std::string(sm.cellName(cid));
    t.sync_cell = cid;
    t.desync_cell = dm.findCell(t.name + "_Ls");
    tasks.push_back(std::move(t));
  });

  if (tasks.empty()) {
    // Purely combinational design: no projection to prove, but the check
    // must not be vacuous — compare every output port as a comb miter.
    rep.comb_only = true;
    for (const netlist::Port& p : sm.ports()) {
      if (p.dir != netlist::PortDir::kOutput || !p.net.valid()) continue;
      Task t;
      const std::string pname(sm.design().names().str(p.name));
      t.name = "out:" + pname;
      t.comb_output = true;
      t.sync_net = p.net;
      const netlist::PortId dp = dm.findPort(pname);
      if (dp.valid()) t.desync_net = dm.port(dp).net;
      tasks.push_back(std::move(t));
    }
    if (tasks.empty()) {
      rep.note = "no registers and no output ports; nothing to prove";
    } else {
      rep.note = "no registers replaced; proved output-port equivalence";
    }
  }

  rep.registers = core::parallelMap(tasks.size(), [&](std::size_t i) {
    const Task& task = tasks[i];
    if (options.restored_proofs != nullptr && !task.comb_output) {
      const auto it = options.restored_proofs->find(task.name);
      if (it != options.restored_proofs->end()) {
        // ECO restore: the caller vouches that this register's cone is
        // untouched, so the stored verdict stands without a miter.
        RegisterProof p;
        p.name = task.name;
        p.verdict = RegVerdict::kProved;
        p.trivial = it->second.trivial;
        p.restored = true;
        p.conflicts = it->second.conflicts;
        p.decisions = it->second.decisions;
        return p;
      }
    }
    return proveTask(sync_bound, desync_bound, task, sync_clk, options);
  });

  for (const RegisterProof& p : rep.registers) {
    if (p.restored) ++rep.restored;
    switch (p.verdict) {
      case RegVerdict::kProved:
        ++rep.proved;
        break;
      case RegVerdict::kRefuted:
        ++rep.refuted;
        break;
      case RegVerdict::kSkipped:
        ++rep.skipped;
        break;
    }
    rep.conflicts += p.conflicts;
    rep.decisions += p.decisions;
  }
  if (options.protocol) {
    rep.protocol = checkProtocol(*options.protocol, options.controller);
  }
  rep.total_ms = msSince(t0);
  return rep;
}

ReplayResult replayCounterexample(const liberty::BoundModule& sync_bound,
                                  const std::string& register_name,
                                  const Counterexample& cex,
                                  const SymfeOptions& options) {
  ReplayResult rr;
  const netlist::Module& m = sync_bound.module();
  const bool comb = register_name.rfind("out:", 0) == 0;

  std::unordered_map<std::string, Val> in_vals;
  for (const auto& [name, v] : cex.inputs) in_vals[name] = fromBool(v);

  auto portVal = [&](const std::string& net_name) {
    const auto it = in_vals.find(net_name);
    return it == in_vals.end() ? Val::k0 : it->second;
  };

  // ---- compiled bit-parallel engine -------------------------------------
  try {
    bitsim::PlanOptions popt;
    popt.clock_port = options.clock_port;
    const bitsim::BitPlan plan = bitsim::compilePlan(sync_bound, popt);
    bitsim::BitSim bs(plan);
    for (const netlist::Port& p : m.ports()) {
      if (p.dir != netlist::PortDir::kInput || !p.net.valid()) continue;
      const std::string pname(m.design().names().str(p.name));
      if (pname == options.clock_port) continue;
      bs.set(m.netName(p.net), portVal(std::string(m.netName(p.net))));
    }
    for (const auto& [name, v] : cex.states) {
      const netlist::CellId c = m.findCell(name);
      if (!c.valid()) continue;
      const liberty::BoundType* bt = sync_bound.typeOf(c);
      if (bt == nullptr || bt->seq == nullptr) continue;
      const netlist::NetId q = sync_bound.rolePinNet(c, bt->seq_pins.q);
      const netlist::NetId qn = sync_bound.rolePinNet(c, bt->seq_pins.qn);
      if (q.valid()) bs.forceNet(m.netName(q), 0, fromBool(v));
      if (qn.valid()) bs.forceNet(m.netName(qn), 0, fromBool(!v));
    }
    for (const auto& [name, v] : cex.frees) {
      bs.forceNet(name, 0, fromBool(v));
    }
    if (comb) {
      bs.settle();
      const netlist::PortId pid = m.findPort(register_name.substr(4));
      if (pid.valid() && m.port(pid).net.valid()) {
        rr.bitsim_value = bs.value(m.netName(m.port(pid).net), 0);
        rr.bitsim_captured = true;
      }
    } else {
      bs.cycle(1);
      for (const CaptureLog& log : bs.captures(0)) {
        if (log.element != register_name) continue;
        if (!log.values.empty()) {
          rr.bitsim_captured = true;
          rr.bitsim_value = log.values.back();
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    rr.detail = std::string("bitsim replay failed: ") + e.what();
    return rr;
  }

  // ---- event-driven engine ----------------------------------------------
  try {
    Simulator es(sync_bound);
    if (!comb) es.setInput(options.clock_port, Val::k0);
    for (const netlist::Port& p : m.ports()) {
      if (p.dir != netlist::PortDir::kInput || !p.net.valid()) continue;
      const std::string pname(m.design().names().str(p.name));
      if (pname == options.clock_port) continue;
      es.setInput(pname, portVal(std::string(m.netName(p.net))));
    }
    for (const auto& [name, v] : cex.states) {
      const netlist::CellId c = m.findCell(name);
      if (!c.valid()) continue;
      const liberty::BoundType* bt = sync_bound.typeOf(c);
      if (bt == nullptr || bt->seq == nullptr) continue;
      const netlist::NetId q = sync_bound.rolePinNet(c, bt->seq_pins.q);
      const netlist::NetId qn = sync_bound.rolePinNet(c, bt->seq_pins.qn);
      if (q.valid()) es.forceNet(m.netName(q), fromBool(v));
      if (qn.valid()) es.forceNet(m.netName(qn), fromBool(!v));
    }
    for (const auto& [name, v] : cex.frees) {
      es.forceNet(name, fromBool(v));
    }
    es.runUntilStable(nsToPs(100000));
    if (comb) {
      rr.event_value = es.value(register_name.substr(4));
      rr.event_captured = true;
    } else {
      es.setInput(options.clock_port, Val::k1);
      es.runUntilStable(es.now() + nsToPs(100000));
      if (const CaptureLog* log = es.captureOf(register_name)) {
        if (!log->values.empty()) {
          rr.event_captured = true;
          rr.event_value = log->values.back();
        }
      }
    }
  } catch (const std::exception& e) {
    rr.detail = std::string("event replay failed: ") + e.what();
    return rr;
  }

  rr.ran = true;
  const Val expect = fromBool(cex.sync_value);
  if (comb || cex.sync_captures) {
    rr.matches_solver = rr.bitsim_captured && rr.event_captured &&
                        rr.bitsim_value == expect && rr.event_value == expect;
    if (!rr.matches_solver) {
      rr.detail = "engines disagree with the solver's captured value";
    }
  } else {
    // Held or async-forced: the new state is unobservable through the
    // forced nets, but both engines must agree nothing was captured, and
    // the solver's held value must be self-consistent.
    bool consistent = true;
    if (cex.async_clear_active && !cex.async_preset_active) {
      consistent = !cex.sync_value;
    } else if (cex.async_preset_active && !cex.async_clear_active) {
      consistent = cex.sync_value;
    }
    rr.matches_solver = !rr.bitsim_captured && !rr.event_captured &&
                        consistent;
    if (!rr.matches_solver) {
      rr.detail = "engines recorded a capture the solver says is gated off";
    }
  }
  return rr;
}

}  // namespace desync::sim::symfe
