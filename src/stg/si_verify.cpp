#include "stg/si_verify.h"

#include <deque>
#include <unordered_map>

#include "util/hash.h"

namespace desync::stg {
namespace {

struct State {
  std::vector<bool> values;  ///< one per circuit signal
  Marking marking;           ///< spec marking
  friend bool operator==(const State&, const State&) = default;
};

struct StateHash {
  std::size_t operator()(const State& s) const noexcept {
    util::Fnv64 h;
    h.update({reinterpret_cast<const char*>(s.marking.data()),
              s.marking.size()});
    for (bool b : s.values) h.u64(b ? 1 : 0);
    return h.digest();
  }
};

}  // namespace

SiResult verifySpeedIndependent(const SiCircuit& circuit, const Stg& spec) {
  SiResult result;

  // --- signal table ----------------------------------------------------
  std::unordered_map<std::string, std::size_t> sig_index;
  std::vector<std::string> sig_names;
  auto internSig = [&](const std::string& n) {
    auto [it, inserted] = sig_index.emplace(n, sig_names.size());
    if (inserted) sig_names.push_back(n);
    return it->second;
  };
  for (const std::string& in : circuit.inputs) internSig(in);
  for (const GateSpec& g : circuit.gates) internSig(g.output);

  struct Gate {
    std::size_t out;
    std::vector<std::size_t> ins;
    const GateSpec* spec;
  };
  std::vector<Gate> gates;
  for (const GateSpec& g : circuit.gates) {
    Gate gg;
    gg.out = sig_index.at(g.output);
    for (const std::string& in : g.inputs) {
      auto it = sig_index.find(in);
      if (it == sig_index.end()) {
        result.stable_start = false;
        result.violation = "gate " + g.output + " reads undriven signal " + in;
        return result;
      }
      gg.ins.push_back(it->second);
    }
    gg.spec = &g;
    gates.push_back(std::move(gg));
  }

  // Map spec signals onto circuit signals.
  std::vector<int> spec_signal_of_circuit(sig_names.size(), -1);
  std::vector<bool> spec_signal_is_input(spec.numSignals(), false);
  for (std::size_t s = 0; s < spec.numSignals(); ++s) {
    const std::string& n = spec.signalName(static_cast<SignalIdx>(s));
    auto it = sig_index.find(n);
    if (it == sig_index.end()) {
      result.stable_start = false;
      result.violation = "spec signal " + n + " not present in circuit";
      return result;
    }
    spec_signal_of_circuit[it->second] = static_cast<int>(s);
    spec_signal_is_input[s] =
        spec.signalKind(static_cast<SignalIdx>(s)) == SignalKind::kInput;
  }

  // --- initial state -----------------------------------------------------
  State init;
  init.values.assign(sig_names.size(), false);
  for (std::size_t i = 0; i < circuit.inputs.size(); ++i) {
    init.values[sig_index.at(circuit.inputs[i])] =
        i < circuit.input_initial.size() && circuit.input_initial[i];
  }
  for (const Gate& g : gates) init.values[g.out] = g.spec->initial;
  init.marking = spec.initialMarking();

  auto gateTarget = [&](const Gate& g, const std::vector<bool>& values) {
    std::vector<bool> ins(g.ins.size());
    for (std::size_t i = 0; i < g.ins.size(); ++i) ins[i] = values[g.ins[i]];
    return g.spec->eval(ins);
  };
  auto excitedSet = [&](const std::vector<bool>& values) {
    std::vector<bool> ex(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
      ex[i] = gateTarget(gates[i], values) != values[gates[i].out];
    }
    return ex;
  };

  // Note initial excitation (informational): gates excited at the start are
  // legitimate for closed self-starting networks — they simply fire as the
  // first exploration steps.
  {
    std::vector<bool> ex = excitedSet(init.values);
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (ex[i]) {
        result.stable_start = false;
        break;
      }
    }
  }

  // --- exploration ---------------------------------------------------------
  struct Visit {
    std::int64_t pred = -1;  ///< index of predecessor state
    std::string label;       ///< event that led here
  };
  std::unordered_map<State, std::size_t, StateHash> seen;
  std::vector<State> order;
  std::vector<Visit> visits;
  std::deque<std::size_t> work;
  seen.emplace(init, 0);
  order.push_back(init);
  visits.push_back(Visit{});
  work.push_back(0);

  std::size_t failing_state = 0;
  auto fail = [&](bool* flag, const std::string& msg) {
    *flag = false;
    if (result.violation.empty()) result.violation = msg;
  };

  while (!work.empty() && result.violation.empty()) {
    const std::size_t cur_idx = work.front();
    State cur = order[cur_idx];
    failing_state = cur_idx;
    work.pop_front();
    std::vector<bool> cur_ex = excitedSet(cur.values);

    struct Move {
      State next;
      int fired_gate = -1;  // -1 for environment moves
      std::string label;
    };
    std::vector<Move> moves;

    // Environment moves: spec input transitions.
    for (TransIdx t : spec.enabled(cur.marking)) {
      SignalIdx ss = spec.transitionSignal(t);
      if (!spec_signal_is_input[ss]) continue;
      std::size_t ci = sig_index.at(spec.signalName(ss));
      Move m;
      m.next.values = cur.values;
      m.next.values[ci] = spec.transitionRising(t);
      m.next.marking = spec.fire(cur.marking, t);
      m.fired_gate = -1;
      m.label = spec.transitionLabel(t);
      moves.push_back(std::move(m));
    }

    // Gate moves.
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
      if (!cur_ex[gi]) continue;
      const Gate& g = gates[gi];
      const bool new_value = !cur.values[g.out];
      Move m;
      m.next.values = cur.values;
      m.next.values[g.out] = new_value;
      m.fired_gate = static_cast<int>(gi);
      m.label = g.spec->output + (new_value ? "+" : "-");
      const int ss = spec_signal_of_circuit[g.out];
      if (ss >= 0 && !spec_signal_is_input[static_cast<std::size_t>(ss)]) {
        // Interface output: the spec must allow this edge now.
        bool allowed = false;
        for (TransIdx t : spec.enabled(cur.marking)) {
          if (spec.transitionSignal(t) == static_cast<SignalIdx>(ss) &&
              spec.transitionRising(t) == new_value) {
            m.next.marking = spec.fire(cur.marking, t);
            allowed = true;
            break;
          }
        }
        if (!allowed) {
          fail(&result.conforms,
               "circuit produces " + m.label + " not allowed by spec");
          break;
        }
      } else {
        m.next.marking = cur.marking;
      }
      moves.push_back(std::move(m));
    }
    if (!result.violation.empty()) break;

    if (moves.empty()) {
      // Quiescence is a deadlock when the spec expects progress — or when
      // the system is fully closed (no spec transitions at all), in which
      // case a controller network is supposed to oscillate forever.
      if (!spec.enabled(cur.marking).empty() || spec.numTransitions() == 0) {
        fail(&result.deadlock_free, "circuit deadlocks while spec can move");
      }
      continue;
    }

    // Semi-modularity: no move may withdraw another gate's excitation.
    for (const Move& m : moves) {
      std::vector<bool> next_ex = excitedSet(m.next.values);
      for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        if (static_cast<int>(gi) == m.fired_gate) continue;
        if (cur_ex[gi] && !next_ex[gi]) {
          fail(&result.hazard_free,
               "hazard: " + m.label + " disables excited gate " +
                   gates[gi].spec->output);
        }
      }
      if (!result.violation.empty()) break;
    }
    if (!result.violation.empty()) break;

    for (Move& m : moves) {
      auto [it, inserted] = seen.emplace(m.next, order.size());
      if (inserted) {
        if (seen.size() > kMaxSiStates) {
          throw StgError("speed-independent product too large");
        }
        order.push_back(m.next);
        visits.push_back(Visit{static_cast<std::int64_t>(cur_idx), m.label});
        work.push_back(it->second);
      }
    }
  }

  if (!result.violation.empty()) {
    // Reconstruct the event path to the failing state.
    std::vector<std::string> path;
    std::int64_t at = static_cast<std::int64_t>(failing_state);
    while (at >= 0 && !visits[static_cast<std::size_t>(at)].label.empty()) {
      path.push_back(visits[static_cast<std::size_t>(at)].label);
      at = visits[static_cast<std::size_t>(at)].pred;
    }
    result.trace.assign(path.rbegin(), path.rend());
  }
  result.states = seen.size();
  return result;
}

}  // namespace desync::stg
