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
// Every miter is a pair of literals of one proof graph (graph.h) built
// before any proof runs; the pair is its content key and its CNF.  UNSAT
// of (vs != vd) proves the projection; a model decodes into a named
// input/state vector that replayCounterexample() re-runs on both
// simulation engines as an independent end-to-end check of the encoding.
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/version.h"
#include "sim/bitsim/bitsim.h"
#include "sim/simulator.h"
#include "sim/symfe/graph.h"
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

netlist::NetId portNetOf(const netlist::Module& m, std::string_view port) {
  const netlist::PortId pid = m.findPort(port);
  return pid.valid() ? m.port(pid).net : netlist::NetId{};
}

/// One task's miter in the shared graph, plus the nets it read (the
/// counterexample decode walks them again in the value domain).
struct Miter {
  std::string skip;  ///< non-empty: the task has no miter (reason)
  NodeLit vs;        ///< register value after the sync cycle
  NodeLit vd;        ///< slave latch value after the handshake
  /// Which optional inputs the miter has and the FF type's polarity
  /// flags: part of the content key.
  std::uint64_t shape = 0;
  std::optional<util::CacheKey> key;  ///< content key (docs/eco.md)
  std::vector<netlist::NetId> sync_nets;  ///< every sync-side cone root
  netlist::NetId e_net;       ///< clock-gate enable (invalid: root clock)
  netlist::NetId clear_net;   ///< async clear pin (invalid: none)
  netlist::NetId preset_net;  ///< async preset pin (invalid: none)
  bool clear_low = false;
  bool preset_low = false;
  netlist::NetId g_net;   ///< slave latch G (invalid on comb tasks)
  netlist::NetId sd_net;  ///< slave latch D, or the desync output net
};

/// `net`'s cone literal into `out`; on failure the walker's reason goes to
/// `skip`.
bool cone(ConeWalker& w, netlist::NetId net, NodeLit& out, std::string& skip) {
  if (const std::optional<NodeLit> l = w.literalFor(net)) {
    out = *l;
    return true;
  }
  skip = w.error();
  return false;
}

Miter outputMiter(ConeWalker& sync_cone, ConeWalker& desync_cone,
                  const Task& task) {
  Miter m;
  if (!task.desync_net.valid()) {
    m.skip = "output port missing from the desynchronized module";
    return m;
  }
  m.shape = 512;
  m.sync_nets.push_back(task.sync_net);
  m.sd_net = task.desync_net;
  if (cone(sync_cone, task.sync_net, m.vs, m.skip)) {
    cone(desync_cone, m.sd_net, m.vd, m.skip);
  }
  return m;
}

Miter registerMiter(ProofGraph& g, ConeWalker& sync_cone,
                    ConeWalker& desync_cone, const liberty::BoundModule& sb,
                    const liberty::BoundModule& db, const Task& task,
                    netlist::NetId sync_clk) {
  if (task.comb_output) return outputMiter(sync_cone, desync_cone, task);
  Miter m;
  if (!task.desync_cell.valid()) {
    m.skip = "no desynchronized counterpart (" + task.name + "_Ls not found)";
    return m;
  }
  const netlist::Module& sm = sb.module();
  const liberty::BoundType& bt = sb.typeOrThrow(task.sync_cell);
  const liberty::SeqClass& sc = *bt.seq;
  const liberty::BoundSeqPins& bp = bt.seq_pins;
  m.shape = (sc.sync_active_low ? 1u : 0u) | (sc.sync_is_set ? 2u : 0u) |
            (sc.async_clear_active_low ? 4u : 0u) |
            (sc.async_preset_active_low ? 8u : 0u);
  const auto sync = [&](netlist::NetId net, NodeLit& out) {
    m.sync_nets.push_back(net);
    return cone(sync_cone, net, out, m.skip);
  };

  const NodeLit q_old = g.leaf(LeafKind::kState, task.name);

  // Next-state function: data, scan mux on top, synchronous set/reset on
  // top of that — the engines apply them in exactly this order.
  const netlist::NetId d_net = sb.rolePinNet(task.sync_cell, bp.data);
  if (!d_net.valid()) {
    m.skip = "unconnected data pin";
    return m;
  }
  NodeLit next;
  if (!sync(d_net, next)) return m;
  if (bp.scan_en >= 0) {
    const netlist::NetId se_net = sb.rolePinNet(task.sync_cell, bp.scan_en);
    if (se_net.valid()) {
      const netlist::NetId si_net = sb.rolePinNet(task.sync_cell, bp.scan_in);
      if (!si_net.valid()) {
        m.skip = "scan enable connected but scan input is not";
        return m;
      }
      NodeLit se;
      NodeLit si;
      if (!sync(se_net, se) || !sync(si_net, si)) return m;
      next = g.iteLit(se, si, next);
      m.shape |= 16;
    }
  }
  if (bp.sync >= 0) {
    const netlist::NetId sn = sb.rolePinNet(task.sync_cell, bp.sync);
    if (sn.valid()) {
      NodeLit active;
      if (!sync(sn, active)) return m;
      if (sc.sync_active_low) active = ~active;
      next = g.iteLit(active, sc.sync_is_set ? kTrue : kFalse, next);
      m.shape |= 32;
    }
  }

  // Capture enable: constant true for a root-clocked FF, the E cone of the
  // driving ICG otherwise (one gating level, same contract as the bitsim
  // plan compiler).
  const netlist::NetId clk_net = sb.rolePinNet(task.sync_cell, bp.clock);
  if (!clk_net.valid() || !sync_clk.valid()) {
    m.skip = "register clock does not resolve to the clock port";
    return m;
  }
  NodeLit es = kTrue;
  if (clk_net != sync_clk) {
    const netlist::Net& cn = sm.net(clk_net);
    const liberty::BoundType* it =
        cn.driver.isCellPin() ? sb.typeOf(cn.driver.cell()) : nullptr;
    if (it == nullptr || it->kind != liberty::CellKind::kClockGate) {
      m.skip = "register clock does not resolve to the clock port";
      return m;
    }
    const netlist::CellId icg = cn.driver.cell();
    if (sb.rolePinNet(icg, it->seq_pins.clock) != sync_clk) {
      m.skip = "multi-level clock gating is out of scope";
      return m;
    }
    m.e_net = sb.rolePinNet(icg, it->seq_pins.data);
    if (!m.e_net.valid()) {
      m.skip = "clock gate has no enable cone";
      return m;
    }
    if (!sync(m.e_net, es)) return m;
    m.shape |= 64;
  }

  m.vs = g.iteLit(es, next, q_old);
  // Async clear and preset: the pin's active literal, false when absent.
  const auto async = [&](int pin, bool low, std::uint64_t bit,
                         netlist::NetId& net, NodeLit& active) {
    active = kFalse;
    net = pin >= 0 ? sb.rolePinNet(task.sync_cell, pin) : netlist::NetId{};
    if (!net.valid()) return true;
    if (!sync(net, active)) return false;
    if (low) active = ~active;
    m.shape |= bit;
    return true;
  };
  m.clear_low = sc.async_clear_active_low;
  m.preset_low = sc.async_preset_active_low;
  NodeLit clear_active;
  NodeLit preset_active;
  if (!async(bp.clear, m.clear_low, 128, m.clear_net, clear_active) ||
      !async(bp.preset, m.preset_low, 256, m.preset_net, preset_active)) {
    return m;
  }
  // Async dominates everything (both engines branch clear before preset).
  m.vs = g.iteLit(preset_active, kTrue, m.vs);
  m.vs = g.iteLit(clear_active, kFalse, m.vs);

  // Desync side: the slave latch after the handshake — its G cone cut at
  // the raw enables (granted => transparent), data through the master.
  const liberty::BoundType* lt = db.typeOf(task.desync_cell);
  if (lt == nullptr || lt->kind != liberty::CellKind::kLatch) {
    m.skip = "desynchronized counterpart is not a latch";
    return m;
  }
  m.g_net = db.rolePinNet(task.desync_cell, lt->seq_pins.clock);
  m.sd_net = db.rolePinNet(task.desync_cell, lt->seq_pins.data);
  if (!m.g_net.valid() || !m.sd_net.valid()) {
    m.skip = "slave latch missing enable or data connection";
    return m;
  }
  NodeLit ed;
  NodeLit sd;
  if (!cone(desync_cone, m.g_net, ed, m.skip) ||
      !cone(desync_cone, m.sd_net, sd, m.skip)) {
    return m;
  }
  m.vd = g.iteLit(ed, sd, q_old);
  return m;
}

/// A refuted miter's leaf values by kind and name — the order in which
/// the counterexample lists them.  A leaf takes the model's value when the
/// miter's CNF has its variable, and 0 when canonicalization dropped it
/// from the miter (its value cannot matter).  Every leaf the cone walk
/// reaches is listed, so a replay forces every state and free net the
/// cones read.
class ModelLeaves {
 public:
  ModelLeaves(const ProofGraph& graph, const Cnf& cnf,
              const sat::Solver& solver)
      : graph_(graph), cnf_(cnf), solver_(solver) {}

  bool value(LeafKind kind, std::string_view name) {
    auto [it, fresh] = values_.try_emplace({kind, std::string(name)}, false);
    if (fresh) {
      const std::optional<NodeLit> l = graph_.findLeaf(kind, name);
      const std::optional<sat::Lit> v = l ? cnf_.find(*l) : std::nullopt;
      it->second = v && solver_.modelValue(sat::varOf(*v));
    }
    return it->second;
  }

  void fill(Counterexample& cex) const {
    // In LeafKind order: inputs, states, frees.
    std::vector<std::pair<std::string, bool>>* lists[] = {
        &cex.inputs, &cex.states, &cex.frees};
    for (const auto& [key, v] : values_) {
      lists[static_cast<int>(key.first)]->emplace_back(key.second, v);
    }
  }

 private:
  const ProofGraph& graph_;
  const Cnf& cnf_;
  const sat::Solver& solver_;
  std::map<std::pair<LeafKind, std::string>, bool> values_;
};

/// Independent scalar evaluation of one module's nets under a decoded
/// model.  Same classification rules as ConeWalker, but in the value
/// domain with sim/value.h primitives — no graph and no CNF involved, so
/// agreement with the solver model cross-checks the whole pipeline.
class ScalarEval {
 public:
  ScalarEval(const liberty::BoundModule& bound, bool desync_side,
             ModelLeaves& leaves)
      : bound_(bound), module_(bound.module()), desync_side_(desync_side),
        leaves_(leaves) {}

  /// `root`'s value: post-order on stack_, inputs in pin order.
  Val net(netlist::NetId root) {
    std::optional<Val> v = enter(root);
    for (;;) {
      if (v) {
        if (stack_.empty()) return *v;
        vals_.push_back(*v);
      }
      GateFrame& f = stack_.back();
      if (f.next < f.arity()) {
        const netlist::NetId in = f.nextInput(bound_);
        v = in.valid() ? enter(in) : Val::kX;
        continue;
      }
      v = f.out != nullptr
              ? evalTable3(f.out->table, &vals_[f.base], f.arity())
              : vals_[f.base];
      vals_.resize(f.base);
      memo_[f.net.value] = *v;
      stack_.pop_back();
    }
  }

 private:
  /// `id`'s value when memoized or a leaf, nullopt with its gate's frame
  /// pushed otherwise.  A gate reads X until it is done, so even a cycle
  /// (which the cone walk has already refused) ends.
  std::optional<Val> enter(netlist::NetId id) {
    if (const auto it = memo_.find(id.value); it != memo_.end()) {
      return it->second;
    }
    const netlist::Net& n = module_.net(id);
    const std::string_view name = module_.netName(id);
    if (desync_side_ && isRawEnableNet(name)) return Val::k1;
    switch (n.driver.kind) {
      case netlist::TermKind::kConst0:
        return Val::k0;
      case netlist::TermKind::kConst1:
        return Val::k1;
      case netlist::TermKind::kPort:
        return fromBool(leaves_.value(LeafKind::kInput, name));
      case netlist::TermKind::kNone:
        return fromBool(leaves_.value(LeafKind::kFree, name));
      case netlist::TermKind::kCellPin:
        break;
    }
    const netlist::CellId cid = n.driver.cell();
    const std::string_view cname = module_.cellName(cid);
    const liberty::BoundType* bt = bound_.typeOf(cid);
    if (bt == nullptr) return Val::kX;
    const auto state = [&](std::string_view reg) {
      const Val l = fromBool(leaves_.value(LeafKind::kState, reg));
      if (bt->seq_pins.qn >= 0 &&
          bound_.rolePinNet(cid, bt->seq_pins.qn) == id) {
        return invert(l);
      }
      return l;
    };
    const auto push = [&](const liberty::BoundOutput* out,
                          netlist::NetId d) -> std::optional<Val> {
      memo_.emplace(id.value, Val::kX);
      stack_.push_back(GateFrame{id, cid, out, d,
                                 static_cast<std::uint32_t>(vals_.size())});
      return std::nullopt;
    };
    switch (bt->kind) {
      case liberty::CellKind::kCombinational:
        for (const liberty::BoundOutput& o : bt->outputs) {
          if (bound_.pinNet(cid, o.pin) == id) return push(&o, {});
        }
        return Val::kX;
      case liberty::CellKind::kFlipFlop:
        return state(cname);
      case liberty::CellKind::kLatch: {
        if (!desync_side_) return Val::kX;
        if (cname.ends_with("_Ls")) {
          return state(cname.substr(0, cname.size() - 3));
        }
        const netlist::NetId d = bound_.rolePinNet(cid, bt->seq_pins.data);
        return d.valid() ? push(nullptr, d) : Val::kX;
      }
      case liberty::CellKind::kClockGate:
        return Val::kX;
    }
    return Val::kX;
  }

  const liberty::BoundModule& bound_;
  const netlist::Module& module_;
  bool desync_side_;
  ModelLeaves& leaves_;
  std::unordered_map<std::uint32_t, Val> memo_;
  std::vector<GateFrame> stack_;  ///< gates being evaluated
  std::vector<Val> vals_;         ///< their input values so far
};

/// Solves one non-trivial miter in a fresh solver and fills the verdict.
/// A model is decoded by re-walking the miter's nets in the value domain;
/// the desync-side value that walk yields must equal the model's, or the
/// proof is marked "internal:".
void solveMiter(RegisterProof& proof, const ProofGraph& graph,
                const Miter& m, const Task& task,
                const liberty::BoundModule& sb,
                const liberty::BoundModule& db, const SymfeOptions& opt) {
  sat::Solver solver;
  Cnf cnf(graph, solver);
  const sat::Lit vs = cnf.lit(m.vs);
  const sat::Lit vd = cnf.lit(m.vd);
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
  ModelLeaves leaves(graph, cnf, solver);
  ScalarEval sync_eval(sb, /*desync_side=*/false, leaves);
  ScalarEval desync_eval(db, /*desync_side=*/true, leaves);
  const auto modelValue = [&](sat::Lit l) {
    return solver.modelValue(sat::varOf(l)) != sat::signOf(l);
  };
  Counterexample cex;
  cex.sync_value = modelValue(vs);
  cex.desync_value = modelValue(vd);
  for (const netlist::NetId n : m.sync_nets) sync_eval.net(n);
  const auto active = [&](netlist::NetId n, bool low) {
    return n.valid() && sync_eval.net(n) == fromBool(!low);
  };
  cex.async_clear_active = active(m.clear_net, m.clear_low);
  cex.async_preset_active = active(m.preset_net, m.preset_low);
  cex.sync_captures = !cex.async_clear_active && !cex.async_preset_active &&
                      (!m.e_net.valid() || sync_eval.net(m.e_net) == Val::k1);
  Val scalar = desync_eval.net(m.sd_net);
  if (!task.comb_output) {
    const Val gv = desync_eval.net(m.g_net);
    const Val q = fromBool(leaves.value(LeafKind::kState, task.name));
    scalar = gv == Val::k1 ? scalar : gv == Val::k0 ? q : Val::kX;
  }
  leaves.fill(cex);
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

/// force(net, value) for the Q and QN nets of every register state the
/// counterexample sets, then for every free net it sets.
template <typename Force>
void forceLeaves(const liberty::BoundModule& sb, const Counterexample& cex,
                 Force&& force) {
  const netlist::Module& m = sb.module();
  for (const auto& [name, v] : cex.states) {
    const netlist::CellId c = m.findCell(name);
    if (!c.valid()) continue;
    const liberty::BoundType* bt = sb.typeOf(c);
    if (bt == nullptr || bt->seq == nullptr) continue;
    const netlist::NetId q = sb.rolePinNet(c, bt->seq_pins.q);
    const netlist::NetId qn = sb.rolePinNet(c, bt->seq_pins.qn);
    if (q.valid()) force(m.netName(q), fromBool(v));
    if (qn.valid()) force(m.netName(qn), fromBool(!v));
  }
  for (const auto& [name, v] : cex.frees) force(name, fromBool(v));
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

  // One graph for the pair: every task's miter and content key (docs/
  // eco.md).  The key's guard holds what a miter reads besides the
  // netlists: the tool version, the library's cells, the clock port and
  // the conflict budget.
  // Most nodes come from the synchronous walk; the desync walk mostly
  // finds them again.
  ProofGraph graph(sm.numNets());
  std::vector<Miter> miters(tasks.size());
  {
    trace::Span span("symfe_graph", "sim");
    util::KeyHasher guard;
    guard.str(core::kToolVersion);
    guard.u64(sync_bound.library().contentHash());
    guard.str(options.clock_port);
    guard.u64(options.max_conflicts);
    ConeWalker sync_cone(sync_bound, graph, /*desync_side=*/false);
    ConeWalker desync_cone(desync_bound, graph, /*desync_side=*/true);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& task = tasks[i];
      Miter& m = miters[i];
      try {
        m = registerMiter(graph, sync_cone, desync_cone, sync_bound,
                          desync_bound, task, sync_clk);
      } catch (const std::exception& e) {
        m.skip = std::string("internal: ") + e.what();
      }
      if (!m.skip.empty()) continue;
      util::KeyHasher h;
      h.absorb(guard.key());
      h.str(task.name);
      h.u64(m.shape);
      h.absorb(graph.hash(m.vs));
      h.absorb(graph.hash(m.vd));
      m.key = h.key();
    }
  }
  rep.graph_nodes = graph.size();
  rep.graph_ms = msSince(t0);

  const auto t_solve = Clock::now();
  rep.registers = core::parallelMap(tasks.size(), [&](std::size_t i) {
    const Miter& m = miters[i];
    RegisterProof p;
    p.name = tasks[i].name;
    p.key = m.key;
    if (options.proof_table != nullptr && p.key.has_value()) {
      const auto it = options.proof_table->find(*p.key);
      if (it != options.proof_table->end()) {
        // An identical miter was proved before: same CNF, same proof.
        p.verdict = RegVerdict::kProved;
        p.trivial = it->second.trivial;
        p.restored = true;
        p.conflicts = it->second.conflicts;
        p.decisions = it->second.decisions;
        return p;
      }
    }
    trace::Span span("symfe_prove", "sim");
    const auto t_task = Clock::now();
    if (!m.skip.empty()) {
      p.reason = m.skip;
    } else if (m.vs == m.vd) {
      p.trivial = true;
      p.verdict = RegVerdict::kProved;
    } else {
      try {
        solveMiter(p, graph, m, tasks[i], sync_bound, desync_bound, options);
      } catch (const std::exception& e) {
        p.verdict = RegVerdict::kSkipped;
        p.reason = std::string("internal: ") + e.what();
      }
    }
    p.ms = msSince(t_task);
    return p;
  });
  rep.solve_ms = msSince(t_solve);

  for (std::size_t i = 0; i < rep.registers.size(); ++i) {
    const RegisterProof& p = rep.registers[i];
    if (p.restored) {
      ++rep.restored;
    } else if (p.trivial) {
      ++rep.trivial;
    } else if (miters[i].skip.empty()) {
      ++rep.solvers;
    }
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
    forceLeaves(sync_bound, cex,
                [&](std::string_view net, Val v) { bs.forceNet(net, 0, v); });
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
    forceLeaves(sync_bound, cex,
                [&](std::string_view net, Val v) { es.forceNet(net, v); });
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
