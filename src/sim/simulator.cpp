#include "sim/simulator.h"

#include <algorithm>
#include <array>

namespace desync::sim {

namespace {
constexpr std::uint32_t kNoNet = std::numeric_limits<std::uint32_t>::max();
/// Floor for any gate delay, ns.
constexpr double kMinDelayNs = 0.001;
}  // namespace

// ------------------------------------------------------------ model types

struct Simulator::CombGate {
  std::uint32_t out = kNoNet;
  std::array<std::uint32_t, 6> in{};
  std::uint8_t n_in = 0;
  std::uint64_t table = 0;
  Time rise = 0, fall = 0;
};

struct Simulator::SeqElem {
  enum class Type : std::uint8_t { kFF, kLatch, kClockGate };
  Type type = Type::kFF;
  std::uint32_t capture_idx = 0;  ///< index into captures_
  std::uint32_t clock = kNoNet;
  bool clock_inv = false;
  std::uint32_t data = kNoNet;
  std::uint32_t scan_in = kNoNet, scan_en = kNoNet;
  std::uint32_t sync = kNoNet;
  bool sync_low = false, sync_set = false;
  std::uint32_t clear = kNoNet;
  bool clear_low = false;
  std::uint32_t preset = kNoNet;
  bool preset_low = false;
  std::uint32_t q = kNoNet, qn = kNoNet;
  Time cq = 0, dq = 0;
  Val state = Val::kX;
};

struct Simulator::Fanout {
  bool is_seq = false;
  std::uint32_t idx = 0;
};

struct Simulator::Event {
  Time t = 0;
  std::uint64_t serial = 0;
  std::uint32_t net = kNoNet;
  Val val = Val::kX;

  // Min-heap ordering on (time, serial): std::push_heap builds a max-heap,
  // so comparison is inverted.
  friend bool operator<(const Event& a, const Event& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.serial > b.serial;
  }
};

// ------------------------------------------------------------ construction

Simulator::Simulator(const netlist::Module& module,
                     const liberty::Gatefile& gatefile, SimOptions options)
    : module_(&module),
      owned_bound_(std::make_unique<liberty::BoundModule>(module, gatefile)),
      bound_(owned_bound_.get()),
      options_(std::move(options)) {
  build();
}

Simulator::Simulator(const liberty::BoundModule& bound, SimOptions options)
    : module_(&bound.module()), bound_(&bound), options_(std::move(options)) {
  build();
}

void Simulator::build() {
  const netlist::Module& module = *module_;
  const liberty::BoundModule& bound = *bound_;
  const std::uint32_t n_nets = module.netCapacity();
  net_val_.assign(n_nets, Val::kX);
  fanout_.assign(n_nets, {});
  toggles_.assign(n_nets, 0);
  pending_serial_.assign(n_nets, 0);
  pending_val_.assign(n_nets, Val::kX);
  pending_time_.assign(n_nets, -1);

  // Name lookup: nets by name, ports by name.
  module.forEachNet([&](netlist::NetId id) {
    net_index_.emplace(std::string(module.netName(id)), id.value);
  });
  for (const netlist::Port& p : module.ports()) {
    if (p.net.valid()) {
      net_index_.emplace(std::string(module.design().names().str(p.name)),
                         p.net.value);
    }
  }

  // Net loads come precomputed with the binding.
  net_load_ = bound.netLoads();

  // Build gates from the bound view: every per-cell resolution below is an
  // integer index into the binding's dense arrays.
  module.forEachCell([&](netlist::CellId cid) {
    const liberty::BoundType* bt = bound.typeOf(cid);
    if (bt == nullptr) {
      throw SimError("unknown cell type (flatten first?): " +
                     std::string(module.cellType(cid)));
    }
    const liberty::LibCell* lc = bt->cell;
    std::string cell_name(module.cellName(cid));
    double scale = options_.delay_scale;
    if (options_.cell_delay_scale) {
      scale *= options_.cell_delay_scale(cell_name);
    }
    auto toSlot = [](netlist::NetId n) {
      return n.valid() ? n.value : kNoNet;
    };
    auto arcDelay = [&](const liberty::LibPin& out, std::uint32_t out_net,
                        bool rise) {
      double worst = 0.0;
      double cap = out_net == kNoNet ? 0.0 : net_load_[out_net];
      for (const liberty::TimingArc& a : out.arcs) {
        if (a.type == liberty::ArcType::kSetup ||
            a.type == liberty::ArcType::kHold) {
          continue;
        }
        double d = rise ? a.intrinsic_rise + a.rise_resistance * cap
                        : a.intrinsic_fall + a.fall_resistance * cap;
        worst = std::max(worst, d);
      }
      worst = std::max(worst * scale, kMinDelayNs);
      return nsToPs(worst);
    };

    if (bt->kind == liberty::CellKind::kCombinational) {
      // One gate per function output (library cells have exactly one).
      for (const liberty::BoundOutput& o : bt->outputs) {
        CombGate g;
        g.out = toSlot(bound.pinNet(cid, o.pin));
        if (g.out == kNoNet) continue;
        g.n_in = static_cast<std::uint8_t>(o.inputs.size());
        for (std::size_t i = 0; i < o.inputs.size(); ++i) {
          g.in[i] = toSlot(bound.pinNet(cid, o.inputs[i]));
          if (g.in[i] == kNoNet) {
            throw SimError("unconnected input " + lc->pins[o.inputs[i]].name +
                           " on " + cell_name);
          }
        }
        g.table = o.table;
        const liberty::LibPin& p = lc->pins[o.pin];
        g.rise = arcDelay(p, g.out, true);
        g.fall = arcDelay(p, g.out, false);
        const std::uint32_t gi = static_cast<std::uint32_t>(combs_.size());
        combs_.push_back(g);
        for (std::uint8_t i = 0; i < g.n_in; ++i) {
          fanout_[g.in[i]].push_back(Fanout{false, gi});
        }
      }
      return;
    }

    // Sequential cell.
    const liberty::SeqClass* sc = bt->seq;
    if (sc == nullptr) {
      throw SimError("unclassified sequential cell " +
                     std::string(module.cellType(cid)));
    }
    const liberty::BoundSeqPins& bp = bt->seq_pins;
    auto roleNet = [&](std::int16_t lib_pin) {
      return toSlot(bound.rolePinNet(cid, lib_pin));
    };
    SeqElem s;
    s.type = bt->kind == liberty::CellKind::kFlipFlop ? SeqElem::Type::kFF
             : bt->kind == liberty::CellKind::kLatch  ? SeqElem::Type::kLatch
                                                      : SeqElem::Type::kClockGate;
    s.clock = roleNet(bp.clock);
    s.clock_inv = sc->clock_inverted;
    s.data = roleNet(bp.data);
    s.scan_in = roleNet(bp.scan_in);
    s.scan_en = roleNet(bp.scan_en);
    if (bp.sync >= 0) {
      s.sync = roleNet(bp.sync);
      s.sync_low = sc->sync_active_low;
      s.sync_set = sc->sync_is_set;
    }
    if (bp.clear >= 0) {
      s.clear = roleNet(bp.clear);
      s.clear_low = sc->async_clear_active_low;
    }
    if (bp.preset >= 0) {
      s.preset = roleNet(bp.preset);
      s.preset_low = sc->async_preset_active_low;
    }
    s.q = roleNet(bp.q);
    s.qn = roleNet(bp.qn);
    // Delays: clock->q from the q pin's clock arc, d->q (latch transparency)
    // from its combinational arc.
    s.cq = nsToPs(std::max(0.1 * options_.delay_scale, kMinDelayNs));
    s.dq = s.cq;
    if (bp.q >= 0) {
      const liberty::LibPin& qp =
          lc->pins[static_cast<std::size_t>(bp.q)];
      double cap = s.q == kNoNet ? 0.0 : net_load_[s.q];
      for (const liberty::TimingArc& a : qp.arcs) {
        double d = std::max(a.intrinsic_rise + a.rise_resistance * cap,
                            a.intrinsic_fall + a.fall_resistance * cap);
        d = std::max(d * scale, kMinDelayNs);
        if (a.type == liberty::ArcType::kClockToQ) s.cq = nsToPs(d);
        if (a.type == liberty::ArcType::kCombinational) s.dq = nsToPs(d);
      }
    }
    s.capture_idx = static_cast<std::uint32_t>(captures_.size());
    capture_index_.emplace(cell_name, s.capture_idx);
    captures_.push_back(CaptureLog{cell_name, {}, {}});
    const std::uint32_t si = static_cast<std::uint32_t>(seqs_.size());
    seqs_.push_back(s);
    for (std::uint32_t n :
         {s.clock, s.data, s.scan_in, s.scan_en, s.sync, s.clear, s.preset}) {
      if (n != kNoNet) fanout_[n].push_back(Fanout{true, si});
    }
  });

  // Constants and initial evaluation.
  module.forEachNet([&](netlist::NetId id) {
    const netlist::Net& n = module.net(id);
    if (n.driver.kind == netlist::TermKind::kConst0) {
      net_val_[id.value] = Val::k0;
    } else if (n.driver.kind == netlist::TermKind::kConst1) {
      net_val_[id.value] = Val::k1;
    }
  });
  for (std::uint32_t gi = 0; gi < combs_.size(); ++gi) evalComb(gi);
}

Simulator::~Simulator() = default;

// ------------------------------------------------------------- evaluation

// Truth-table and control-level semantics come from the shared table-driven
// ops in sim/value.h (evalTable3 / activeLevel / merge3), which the
// bit-parallel engine evaluates 64 lanes at a time.

void Simulator::evalComb(std::uint32_t gate_idx) {
  const CombGate& g = combs_[gate_idx];
  std::array<Val, 6> in{};
  for (std::uint8_t i = 0; i < g.n_in; ++i) in[i] = net_val_[g.in[i]];
  Val target = evalTable3(g.table, in.data(), g.n_in);
  const bool rising = target == Val::k1 ||
                      (target == Val::kX && net_val_[g.out] == Val::k0);
  scheduleNet(g.out, target, rising ? g.rise : g.fall);
}

void Simulator::evalSeq(std::uint32_t seq_idx, std::uint32_t changed_net,
                        Val old_val) {
  SeqElem& s = seqs_[seq_idx];

  auto driveOutputs = [&](Time delay) {
    if (s.q != kNoNet) scheduleNet(s.q, s.state, delay);
    if (s.qn != kNoNet) scheduleNet(s.qn, invert(s.state), delay);
  };
  auto record = [&]() {
    if (!options_.record_captures) return;
    CaptureLog& log = captures_[s.capture_idx];
    log.values.push_back(s.state);
    log.times.push_back(now_);
  };

  // Asynchronous controls dominate.
  Val clr = s.clear == kNoNet ? Val::k0
                              : activeLevel(net_val_[s.clear], s.clear_low);
  Val pre = s.preset == kNoNet
                ? Val::k0
                : activeLevel(net_val_[s.preset], s.preset_low);
  if (clr == Val::k1 || pre == Val::k1) {
    Val forced = Val::kX;
    if (clr == Val::k1 && pre != Val::k1) forced = Val::k0;
    if (pre == Val::k1 && clr != Val::k1) forced = Val::k1;
    if (s.state != forced) {
      s.state = forced;
      driveOutputs(s.cq);
    }
    return;
  }
  if (clr == Val::kX || pre == Val::kX) {
    if (s.state != Val::kX) {
      s.state = Val::kX;
      driveOutputs(s.cq);
    }
    return;
  }

  // Next-state function (scan mux + synchronous set/reset + data).
  auto nextState = [&]() -> Val {
    Val d = s.data == kNoNet ? Val::kX : net_val_[s.data];
    if (s.scan_en != kNoNet) {
      Val se = net_val_[s.scan_en];
      Val si = s.scan_in == kNoNet ? Val::kX : net_val_[s.scan_in];
      if (se == Val::k1) {
        d = si;
      } else if (se == Val::kX) {
        d = merge3(si, d);
      }
    }
    if (s.sync != kNoNet) {
      Val active = activeLevel(net_val_[s.sync], s.sync_low);
      Val forced = s.sync_set ? Val::k1 : Val::k0;
      if (active == Val::k1) {
        d = forced;
      } else if (active == Val::kX) {
        d = merge3(d, forced);
      }
    }
    return d;
  };

  auto effClock = [&](Val raw) {
    return s.clock_inv ? invert(raw) : raw;
  };

  if (s.type == SeqElem::Type::kFF) {
    if (changed_net != s.clock) return;  // data changes wait for the edge
    Val before = effClock(old_val);
    Val after = effClock(net_val_[s.clock]);
    if (before == Val::k0 && after == Val::k1) {
      s.state = nextState();
      record();
      driveOutputs(s.cq);
    } else if (after == Val::kX && before != Val::kX) {
      s.state = Val::kX;
      driveOutputs(s.cq);
    }
    return;
  }

  if (s.type == SeqElem::Type::kLatch) {
    Val en = effClock(net_val_[s.clock]);
    if (changed_net == s.clock) {
      Val en_before = effClock(old_val);
      if (en == Val::k1) {
        // Opened: output follows data.
        s.state = nextState();
        driveOutputs(s.dq);
      } else if (en == Val::k0 && en_before != Val::k0) {
        // Closed: store the data present now.
        s.state = nextState();
        record();
        driveOutputs(s.dq);
      } else if (en == Val::kX) {
        s.state = Val::kX;
        driveOutputs(s.dq);
      }
      return;
    }
    // Data-side change while transparent.
    if (en == Val::k1) {
      s.state = nextState();
      driveOutputs(s.dq);
    } else if (en == Val::kX && s.state != Val::kX) {
      s.state = Val::kX;
      driveOutputs(s.dq);
    }
    return;
  }

  // Integrated clock gate: enable latch transparent while clock inactive;
  // output = latched_enable AND clock.
  Val cp = net_val_[s.clock];  // raw clock (enable = CP', so inactive = CP=1)
  if (changed_net == s.clock) {
    if (cp == Val::k1) {
      // Latch froze at the rising edge; gated clock = stored enable.
      record();
      if (s.q != kNoNet) scheduleNet(s.q, s.state, s.cq);
    } else if (cp == Val::k0) {
      // Enable latch turns transparent again: resample E.
      s.state = s.data == kNoNet ? Val::kX : net_val_[s.data];
      if (s.q != kNoNet) scheduleNet(s.q, Val::k0, s.cq);
    } else {
      s.state = Val::kX;
      if (s.q != kNoNet) scheduleNet(s.q, Val::kX, s.cq);
    }
    return;
  }
  // Enable change: transparent while clock low.
  if (cp == Val::k0) {
    s.state = s.data == kNoNet ? Val::kX : net_val_[s.data];
  } else if (cp == Val::kX) {
    s.state = Val::kX;
  }
}

// ---------------------------------------------------------------- events

void Simulator::scheduleNet(std::uint32_t net, Val v, Time delay) {
  if (net == kNoNet) return;
  if (!forced_.empty() && forced_[net]) return;  // stuck-at override
  static_assert(sizeof(Event) == 24 || sizeof(Event) == 32, "layout sanity");
  const bool has_pending = pending_time_[net] >= 0;
  if (!has_pending && net_val_[net] == v) return;  // no change
  if (has_pending && pending_val_[net] == v) return;  // already on the way
  if (has_pending && net_val_[net] == v) {
    // Inertial cancellation: the pulse is shorter than the gate delay.
    pending_serial_[net]++;  // invalidates the queued event
    pending_time_[net] = -1;
    return;
  }
  const Time at = now_ + std::max<Time>(delay, 1);
  pending_serial_[net]++;
  pending_val_[net] = v;
  pending_time_[net] = at;
  heap_.push_back(Event{at, (static_cast<std::uint64_t>(pending_serial_[net])
                             << 32) |
                                net,
                        net, v});
  std::push_heap(heap_.begin(), heap_.end());
}

void Simulator::applyEvent(std::uint32_t net, Val v) {
  Val old = net_val_[net];
  if (old == v) return;
  net_val_[net] = v;
  if (options_.count_toggles && isKnown(old) && isKnown(v)) {
    ++toggles_[net];
  }
  ++events_;
  if (auto it = watches_.find(net); it != watches_.end()) {
    for (const WatchFn& fn : it->second) fn(now_, v);
  }
  for (const Fanout& f : fanout_[net]) {
    if (f.is_seq) {
      evalSeq(f.idx, net, old);
    } else {
      evalComb(f.idx);
    }
  }
}

Time Simulator::nextGateEventTime() {
  while (!heap_.empty()) {
    const Event& e = heap_.front();
    const std::uint64_t expect =
        (static_cast<std::uint64_t>(pending_serial_[e.net]) << 32) | e.net;
    if (e.serial == expect && pending_time_[e.net] == e.t) return e.t;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
  return -1;
}

void Simulator::processOne() {
  const Time tg = nextGateEventTime();
  const Time ti = input_queue_.empty() ? -1 : input_queue_.begin()->first;
  if (ti >= 0 && (tg < 0 || ti <= tg)) {
    auto it = input_queue_.begin();
    now_ = it->first;
    auto [net, val] = it->second;
    input_queue_.erase(it);
    // A stuck-at force pins the net against the testbench too, exactly as
    // scheduleNet pins it against gate drivers (fault campaigns force input
    // ports such as scan_in).
    if (!forced_.empty() && forced_[net]) return;
    // An input change overrides any pending gate event on the net.
    pending_serial_[net]++;
    pending_time_[net] = -1;
    applyEvent(net, val);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end());
  Event e = heap_.back();
  heap_.pop_back();
  now_ = e.t;
  pending_time_[e.net] = -1;
  applyEvent(e.net, e.val);
}

void Simulator::run(Time until) {
  for (;;) {
    const Time tg = nextGateEventTime();
    const Time ti = input_queue_.empty() ? -1 : input_queue_.begin()->first;
    Time next = -1;
    if (tg >= 0 && ti >= 0) {
      next = std::min(tg, ti);
    } else {
      next = std::max(tg, ti);
    }
    if (next < 0 || next > until) break;
    processOne();
  }
  now_ = std::max(now_, until);
}

Time Simulator::runUntilStable(Time max_time) {
  Time last = now_;
  for (;;) {
    const Time tg = nextGateEventTime();
    const Time ti = input_queue_.empty() ? -1 : input_queue_.begin()->first;
    Time next = -1;
    if (tg >= 0 && ti >= 0) {
      next = std::min(tg, ti);
    } else {
      next = std::max(tg, ti);
    }
    if (next < 0) break;
    if (next > max_time) {
      now_ = max_time;
      return last;
    }
    processOne();
    last = now_;
  }
  return last;
}

bool Simulator::stable() const {
  if (!input_queue_.empty()) return false;
  for (const Event& e : heap_) {
    const std::uint64_t expect =
        (static_cast<std::uint64_t>(pending_serial_[e.net]) << 32) | e.net;
    if (e.serial == expect && pending_time_[e.net] == e.t) return false;
  }
  return true;
}

// ----------------------------------------------------------------- access

void Simulator::setInput(std::string_view port, Val v) {
  setInputAt(port, v, now_);
}

void Simulator::setInputAt(std::string_view port, Val v, Time at) {
  auto it = net_index_.find(std::string(port));
  if (it == net_index_.end()) {
    throw SimError("unknown input: " + std::string(port));
  }
  if (at < now_) throw SimError("cannot schedule input in the past");
  input_queue_.emplace(std::max(at, now_ + 1), std::make_pair(it->second, v));
}

Val Simulator::value(std::string_view net_or_port) const {
  auto it = net_index_.find(std::string(net_or_port));
  if (it == net_index_.end()) {
    throw SimError("unknown net: " + std::string(net_or_port));
  }
  return net_val_[it->second];
}

Val Simulator::netValue(netlist::NetId id) const {
  return net_val_.at(id.value);
}

const CaptureLog* Simulator::captureOf(std::string_view cell) const {
  const auto it = capture_index_.find(std::string(cell));
  return it == capture_index_.end() ? nullptr : &captures_[it->second];
}

std::uint64_t Simulator::totalToggles() const {
  std::uint64_t sum = 0;
  for (std::uint64_t t : toggles_) sum += t;
  return sum;
}

netlist::NetId Simulator::portNet(std::string_view port) const {
  auto it = net_index_.find(std::string(port));
  return it == net_index_.end() ? netlist::NetId{}
                                : netlist::NetId{it->second};
}

void Simulator::forceNet(std::string_view net, Val v) {
  auto it = net_index_.find(std::string(net));
  if (it == net_index_.end()) {
    throw SimError("unknown net: " + std::string(net));
  }
  if (forced_.empty()) forced_.assign(net_val_.size(), false);
  const std::uint32_t n = it->second;
  // Cancel any in-flight event, pin the value, propagate the change.
  pending_serial_[n]++;
  pending_time_[n] = -1;
  applyEvent(n, v);
  forced_[n] = true;
}

void Simulator::releaseNet(std::string_view net) {
  auto it = net_index_.find(std::string(net));
  if (it == net_index_.end()) {
    throw SimError("unknown net: " + std::string(net));
  }
  if (!forced_.empty()) forced_[it->second] = false;
  // Re-evaluate the driver so the net returns to its functional value.
  const netlist::Net& n = module_->net(netlist::NetId{it->second});
  if (n.driver.isCellPin()) {
    for (std::uint32_t gi = 0; gi < combs_.size(); ++gi) {
      if (combs_[gi].out == it->second) {
        evalComb(gi);
        break;
      }
    }
  }
}

void Simulator::watchNet(std::string_view net_or_port, WatchFn fn) {
  auto it = net_index_.find(std::string(net_or_port));
  if (it == net_index_.end()) {
    throw SimError("unknown net: " + std::string(net_or_port));
  }
  watches_[it->second].push_back(std::move(fn));
}

}  // namespace desync::sim
