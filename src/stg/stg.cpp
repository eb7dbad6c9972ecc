#include "stg/stg.h"

#include <algorithm>
#include <deque>

#include "util/hash.h"

namespace desync::stg {

namespace {

struct MarkingHash {
  std::size_t operator()(const Marking& m) const noexcept {
    util::Fnv64 h;
    h.update({reinterpret_cast<const char*>(m.data()), m.size()});
    return h.digest();
  }
};

}  // namespace

SignalIdx Stg::addSignal(std::string name, SignalKind kind) {
  auto it = signal_by_name_.find(name);
  if (it != signal_by_name_.end()) return it->second;
  SignalIdx idx = static_cast<SignalIdx>(signals_.size());
  signal_by_name_.emplace(name, idx);
  signals_.push_back(Signal{std::move(name), kind});
  return idx;
}

TransIdx Stg::addTransition(SignalIdx signal, bool rising) {
  if (signal >= signals_.size()) throw StgError("bad signal index");
  trans_.push_back(Transition{signal, rising, {}, {}});
  return static_cast<TransIdx>(trans_.size() - 1);
}

TransIdx Stg::addTransition(std::string_view label) {
  if (label.size() < 2 || (label.back() != '+' && label.back() != '-')) {
    throw StgError("bad transition label: " + std::string(label));
  }
  std::string sig(label.substr(0, label.size() - 1));
  SignalIdx s = addSignal(sig, SignalKind::kOutput);
  return addTransition(s, label.back() == '+');
}

PlaceIdx Stg::addPlace(std::uint8_t tokens) {
  place_tokens_.push_back(tokens);
  return static_cast<PlaceIdx>(place_tokens_.size() - 1);
}

void Stg::arcPT(PlaceIdx p, TransIdx t) { trans_.at(t).pre.push_back(p); }

void Stg::arcTP(TransIdx t, PlaceIdx p) { trans_.at(t).post.push_back(p); }

PlaceIdx Stg::connect(TransIdx from, TransIdx to, std::uint8_t tokens) {
  PlaceIdx p = addPlace(tokens);
  arcTP(from, p);
  arcPT(p, to);
  return p;
}

PlaceIdx Stg::connect(std::string_view from, std::string_view to,
                      std::uint8_t tokens) {
  TransIdx tf = transitionFor(from);
  TransIdx tt = transitionFor(to);
  return connect(tf, tt, tokens);
}

TransIdx Stg::transitionFor(std::string_view label) {
  if (label.size() < 2 || (label.back() != '+' && label.back() != '-')) {
    throw StgError("bad transition label: " + std::string(label));
  }
  std::string sig(label.substr(0, label.size() - 1));
  const bool rising = label.back() == '+';
  auto it = signal_by_name_.find(sig);
  if (it != signal_by_name_.end()) {
    for (TransIdx t = 0; t < trans_.size(); ++t) {
      if (trans_[t].signal == it->second && trans_[t].rising == rising) {
        return t;
      }
    }
  }
  return addTransition(label);
}

std::string Stg::transitionLabel(TransIdx t) const {
  const Transition& tr = trans_.at(t);
  return signals_.at(tr.signal).name + (tr.rising ? "+" : "-");
}

bool Stg::isEnabled(const Marking& m, TransIdx t) const {
  for (PlaceIdx p : trans_.at(t).pre) {
    if (m[p] == 0) return false;
  }
  return true;
}

std::vector<TransIdx> Stg::enabled(const Marking& m) const {
  std::vector<TransIdx> out;
  for (TransIdx t = 0; t < trans_.size(); ++t) {
    if (isEnabled(m, t)) out.push_back(t);
  }
  return out;
}

Marking Stg::fire(const Marking& m, TransIdx t) const {
  Marking next = m;
  for (PlaceIdx p : trans_.at(t).pre) {
    if (next[p] == 0) throw StgError("firing disabled transition");
    --next[p];
  }
  for (PlaceIdx p : trans_.at(t).post) {
    if (next[p] >= kBound) throw StgError("unbounded place");
    ++next[p];
  }
  return next;
}

namespace {

struct Explorer {
  const Stg& stg;
  std::size_t max_states;
  std::unordered_map<Marking, std::uint32_t, MarkingHash> id_of;
  std::vector<Marking> states;
  std::vector<std::vector<std::pair<TransIdx, std::uint32_t>>> edges;
  bool bounded = true;

  explicit Explorer(const Stg& s, std::size_t limit)
      : stg(s), max_states(limit) {}

  std::uint32_t intern(const Marking& m) {
    auto [it, inserted] =
        id_of.emplace(m, static_cast<std::uint32_t>(states.size()));
    if (inserted) {
      states.push_back(m);
      edges.emplace_back();
    }
    return it->second;
  }

  void run() {
    std::deque<std::uint32_t> work;
    work.push_back(intern(stg.initialMarking()));
    std::size_t processed = 0;
    while (!work.empty()) {
      std::uint32_t id = work.front();
      work.pop_front();
      if (processed++ > max_states) {
        throw StgError("state space exceeds max_states");
      }
      // `states` may reallocate while we expand; copy the marking.
      Marking m = states[id];
      for (TransIdx t : stg.enabled(m)) {
        Marking next;
        try {
          next = stg.fire(m, t);
        } catch (const StgError&) {
          bounded = false;
          continue;
        }
        std::size_t before = states.size();
        std::uint32_t nid = intern(next);
        edges[id].emplace_back(t, nid);
        if (states.size() > before) work.push_back(nid);
      }
    }
  }
};

/// Tarjan-free SCC count via Kosaraju (iterative) — returns true when the
/// whole graph is one SCC.
bool stronglyConnected(
    const std::vector<std::vector<std::pair<TransIdx, std::uint32_t>>>& edges) {
  const std::size_t n = edges.size();
  if (n == 0) return true;
  auto reach = [&](const auto& adj) {
    std::vector<bool> seen(n, false);
    std::vector<std::uint32_t> stack{0};
    seen[0] = true;
    std::size_t count = 1;
    while (!stack.empty()) {
      std::uint32_t v = stack.back();
      stack.pop_back();
      for (std::uint32_t w : adj[v]) {
        if (!seen[w]) {
          seen[w] = true;
          ++count;
          stack.push_back(w);
        }
      }
    }
    return count == n;
  };
  std::vector<std::vector<std::uint32_t>> fwd(n), rev(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (auto [t, w] : edges[v]) {
      fwd[v].push_back(w);
      rev[w].push_back(static_cast<std::uint32_t>(v));
    }
  }
  return reach(fwd) && reach(rev);
}

}  // namespace

Reachability analyze(const Stg& stg, const ReachabilityOptions& opts) {
  Explorer ex(stg, opts.max_states);
  ex.run();

  Reachability r;
  r.num_states = ex.states.size();
  r.bounded = ex.bounded;
  r.transition_fired.assign(stg.numTransitions(), false);

  for (std::size_t id = 0; id < ex.states.size(); ++id) {
    const Marking& m = ex.states[id];
    std::vector<TransIdx> en = stg.enabled(m);
    if (en.empty()) {
      r.deadlock_free = false;
      r.live = false;
      if (r.violation.empty()) r.violation = "deadlock reached";
    }
    for (TransIdx t : en) r.transition_fired[t] = true;

    // Output persistency: firing t must not disable another enabled
    // non-input transition t2 (unless t and t2 are edges of the same
    // signal, which cannot be concurrently enabled in a consistent STG).
    for (TransIdx t : en) {
      Marking next;
      try {
        next = stg.fire(m, t);
      } catch (const StgError&) {
        continue;  // unboundedness already recorded by the explorer
      }
      for (TransIdx t2 : en) {
        if (t2 == t) continue;
        if (stg.signalKind(stg.transitionSignal(t2)) == SignalKind::kInput) {
          continue;
        }
        if (stg.transitionSignal(t2) == stg.transitionSignal(t)) continue;
        if (!stg.isEnabled(next, t2)) {
          r.output_persistent = false;
          if (r.violation.empty()) {
            r.violation = "firing " + stg.transitionLabel(t) + " disables " +
                          stg.transitionLabel(t2);
          }
        }
      }
    }
  }

  for (std::size_t t = 0; t < stg.numTransitions(); ++t) {
    if (!r.transition_fired[t]) {
      r.live = false;
      if (r.violation.empty()) {
        r.violation = "transition " +
                      stg.transitionLabel(static_cast<TransIdx>(t)) +
                      " never enabled";
      }
    }
  }
  if (r.live && !stronglyConnected(ex.edges)) {
    r.live = false;
    if (r.violation.empty()) {
      r.violation = "reachability graph not strongly connected";
    }
  }
  if (!r.bounded) {
    r.live = false;
    if (r.violation.empty()) r.violation = "net unbounded";
  }
  return r;
}

void forEachEdge(
    const Stg& stg,
    const std::function<void(const Marking&, TransIdx, const Marking&)>& visit,
    const ReachabilityOptions& opts) {
  Explorer ex(stg, opts.max_states);
  ex.run();
  for (std::size_t id = 0; id < ex.states.size(); ++id) {
    for (auto [t, nid] : ex.edges[id]) {
      visit(ex.states[id], t, ex.states[nid]);
    }
  }
}

}  // namespace desync::stg
