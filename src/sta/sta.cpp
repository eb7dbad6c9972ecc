#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/parallel.h"
#include "trace/trace.h"

namespace desync::sta {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

enum class Unate : std::uint8_t { kPositive, kNegative, kNonUnate };

/// Determines unateness of output w.r.t. variable `v` from the truth table.
Unate unateness(std::uint64_t table, std::size_t n_vars, std::size_t v) {
  bool can_rise = false;   // f goes 0->1 when v goes 0->1 somewhere
  bool can_fall = false;   // f goes 1->0 when v goes 0->1 somewhere
  const std::size_t rows = std::size_t{1} << n_vars;
  for (std::size_t row = 0; row < rows; ++row) {
    if ((row >> v) & 1u) continue;
    const bool f0 = (table >> row) & 1u;
    const bool f1 = (table >> (row | (std::size_t{1} << v))) & 1u;
    if (!f0 && f1) can_rise = true;
    if (f0 && !f1) can_fall = true;
  }
  if (can_rise && can_fall) return Unate::kNonUnate;
  if (can_fall) return Unate::kNegative;
  return Unate::kPositive;
}

}  // namespace

struct Sta::Arc {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  netlist::CellId cell;
  double d_rise = 0.0;  ///< delay when the *output* rises
  double d_fall = 0.0;
  Unate unate = Unate::kPositive;
  bool disabled = false;
};

struct Sta::Endpoint {
  std::uint32_t net = 0;
  double setup = 0.0;
  netlist::CellId cell;   ///< invalid for output ports
  bool is_port = false;
};

Sta::Sta(const netlist::Module& module, const liberty::Gatefile& gatefile,
         StaOptions options)
    : module_(&module),
      owned_bound_(std::make_unique<liberty::BoundModule>(module, gatefile)),
      bound_(owned_bound_.get()),
      options_(std::move(options)) {
  buildGraph();
  breakLoops();
  propagate();
}

Sta::Sta(const liberty::BoundModule& bound, StaOptions options)
    : module_(&bound.module()), bound_(&bound), options_(std::move(options)) {
  buildGraph();
  breakLoops();
  propagate();
}

Sta::~Sta() = default;

void Sta::buildGraph() {
  const netlist::Module& m = *module_;
  const liberty::BoundModule& bound = *bound_;
  const netlist::NameTable& names = m.design().names();

  // Net loads for the linear delay model come precomputed with the binding.
  const std::vector<double>& load = bound.netLoads();

  // Resolve SDC set_disable_timing specs to (cell, lib pin) once, instead
  // of comparing names per cell per arc.  Specs naming absent cells or pins
  // match nothing, as before.
  std::vector<std::uint32_t> disabled_cells;       // whole-cell cuts
  std::vector<std::pair<std::uint32_t, std::uint16_t>> disabled_pins;
  for (const DisabledArc& d : options_.disabled) {
    netlist::CellId cid = m.findCell(d.cell);
    if (!cid.valid()) continue;
    if (d.from_pin.empty()) {
      disabled_cells.push_back(cid.index());
      continue;
    }
    const liberty::BoundType* bt = bound.typeOf(cid);
    if (bt == nullptr) continue;
    const std::size_t j = bt->cell->pinIndex(d.from_pin);
    if (j == liberty::LibCell::npos) continue;
    disabled_pins.emplace_back(cid.index(), static_cast<std::uint16_t>(j));
  }

  m.forEachCell([&](netlist::CellId cid) {
    const netlist::Cell& cell = m.cell(cid);
    const liberty::BoundType* bt = bound.typeOf(cid);
    if (bt == nullptr) {
      throw StaError("unknown cell type (flatten first?): " +
                     std::string(names.str(cell.type)));
    }
    const bool cell_disabled =
        std::find(disabled_cells.begin(), disabled_cells.end(),
                  cid.index()) != disabled_cells.end();

    if (bt->kind == liberty::CellKind::kCombinational) {
      for (const liberty::BoundOutput& o : bt->outputs) {
        netlist::NetId out_net = bound.pinNet(cid, o.pin);
        if (!out_net.valid()) continue;
        const double cap = load[out_net.value];
        const liberty::LibPin& out = bt->cell->pins[o.pin];
        for (std::size_t v = 0; v < o.inputs.size(); ++v) {
          netlist::NetId in_net = bound.pinNet(cid, o.inputs[v]);
          if (!in_net.valid()) continue;
          bool pin_disabled = cell_disabled;
          if (!pin_disabled) {
            for (const auto& [dc, dp] : disabled_pins) {
              if (dc == cid.index() && dp == o.inputs[v]) {
                pin_disabled = true;
                break;
              }
            }
          }
          // Delay from the arc matching this related pin (resolved at bind
          // time; fallback: worst arc of the output).
          double dr = 0.0, df = 0.0;
          if (const liberty::TimingArc* a = o.input_arcs[v]) {
            dr = a->intrinsic_rise + a->rise_resistance * cap;
            df = a->intrinsic_fall + a->fall_resistance * cap;
          } else {
            for (const liberty::TimingArc& a : out.arcs) {
              dr = std::max(dr, a.intrinsic_rise + a.rise_resistance * cap);
              df = std::max(df, a.intrinsic_fall + a.fall_resistance * cap);
            }
          }
          double scale = options_.delay_scale;
          if (options_.cell_scale) {
            scale *= options_.cell_scale(names.str(cell.name));
          }
          Arc arc;
          arc.from = in_net.value;
          arc.to = out_net.value;
          arc.cell = cid;
          arc.d_rise = dr * scale;
          arc.d_fall = df * scale;
          arc.unate = unateness(o.table, o.inputs.size(), v);
          arc.disabled = pin_disabled;
          arcs_.push_back(arc);
        }
      }
      return;
    }

    // Sequential cell: data-ish inputs are endpoints with setup; outputs are
    // startpoints (handled in propagate()).
    if (bt->seq == nullptr) return;
    auto addEndpoint = [&](std::int16_t lib_pin) {
      if (lib_pin < 0) return;
      netlist::NetId net = bound.rolePinNet(cid, lib_pin);
      if (!net.valid()) return;
      double setup = 0.0;
      const liberty::LibPin& lp =
          bt->cell->pins[static_cast<std::size_t>(lib_pin)];
      for (const liberty::TimingArc& a : lp.arcs) {
        if (a.type == liberty::ArcType::kSetup) {
          setup = std::max(setup,
                           std::max(a.intrinsic_rise, a.intrinsic_fall));
        }
      }
      Endpoint e;
      e.net = net.value;
      e.setup = setup * options_.delay_scale;
      e.cell = cid;
      endpoints_.push_back(e);
    };
    addEndpoint(bt->seq_pins.data);
    addEndpoint(bt->seq_pins.scan_in);
    addEndpoint(bt->seq_pins.scan_en);
    addEndpoint(bt->seq_pins.sync);
  });

  // Output ports are endpoints too.
  for (const netlist::Port& p : m.ports()) {
    if (p.dir != netlist::PortDir::kInput && p.net.valid()) {
      Endpoint e;
      e.net = p.net.value;
      e.is_port = true;
      endpoints_.push_back(e);
    }
  }
}

void Sta::breakLoops() {
  const netlist::Module& m = *module_;
  const netlist::NameTable& names = m.design().names();
  // Adjacency over enabled arcs.
  std::vector<std::vector<std::uint32_t>> out(m.netCapacity());
  for (std::uint32_t i = 0; i < arcs_.size(); ++i) {
    if (!arcs_[i].disabled) out[arcs_[i].from].push_back(i);
  }
  // Iterative DFS; arcs to nodes on the current stack are back edges.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(m.netCapacity(), kWhite);
  struct Frame {
    std::uint32_t net;
    std::size_t next = 0;
  };
  for (std::uint32_t root = 0; root < m.netCapacity(); ++root) {
    if (color[root] != kWhite) continue;
    std::vector<Frame> stack{{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next >= out[f.net].size()) {
        color[f.net] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::uint32_t arc_idx = out[f.net][f.next++];
      Arc& arc = arcs_[arc_idx];
      if (arc.disabled) continue;
      if (color[arc.to] == kGray) {
        if (!options_.auto_break_loops) {
          throw StaError("timing loop through cell " +
                         std::string(names.str(m.cell(arc.cell).name)));
        }
        arc.disabled = true;
        broken_.push_back(BrokenArc{
            std::string(names.str(m.cell(arc.cell).name)),
            std::string(m.netName(netlist::NetId{arc.from})),
            std::string(m.netName(netlist::NetId{arc.to}))});
        continue;
      }
      if (color[arc.to] == kWhite) {
        color[arc.to] = kGray;
        stack.push_back(Frame{arc.to, 0});
      }
    }
  }
}

void Sta::propagate() {
  const netlist::Module& m = *module_;
  const liberty::BoundModule& bound = *bound_;
  const netlist::NameTable& names = m.design().names();

  arr_rise_.assign(m.netCapacity(), kNegInf);
  arr_fall_.assign(m.netCapacity(), kNegInf);
  pred_rise_.assign(m.netCapacity(), -1);
  pred_fall_.assign(m.netCapacity(), -1);

  // Startpoints: input ports at 0, sequential outputs at their clk->q.
  for (const netlist::Port& p : m.ports()) {
    if (p.dir == netlist::PortDir::kInput && p.net.valid()) {
      arr_rise_[p.net.value] = 0.0;
      arr_fall_[p.net.value] = 0.0;
    }
  }
  m.forEachCell([&](netlist::CellId cid) {
    const liberty::BoundType* bt = bound.typeOf(cid);
    if (bt == nullptr || bt->kind == liberty::CellKind::kCombinational) {
      return;
    }
    for (std::uint16_t j : bt->output_pins) {
      netlist::NetId net = bound.pinNet(cid, j);
      if (!net.valid()) continue;
      const liberty::LibPin& p = bt->cell->pins[j];
      double cq = 0.0;
      for (const liberty::TimingArc& a : p.arcs) {
        if (a.type == liberty::ArcType::kClockToQ) {
          cq = std::max(cq, std::max(a.intrinsic_rise, a.intrinsic_fall));
        }
      }
      cq *= options_.delay_scale;
      if (options_.cell_scale) {
        cq *= options_.cell_scale(names.str(m.cell(cid).name));
      }
      arr_rise_[net.value] = std::max(arr_rise_[net.value], cq);
      arr_fall_[net.value] = std::max(arr_fall_[net.value], cq);
    }
  });
  // Constant nets launch at 0 (they never switch; harmless).
  m.forEachNet([&](netlist::NetId id) {
    if (m.net(id).driver.isConst()) {
      arr_rise_[id.value] = 0.0;
      arr_fall_[id.value] = 0.0;
    }
  });

  // Kahn topological order over enabled arcs.
  std::vector<std::uint32_t> indeg(m.netCapacity(), 0);
  std::vector<std::vector<std::uint32_t>> out(m.netCapacity());
  for (std::uint32_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i].disabled) continue;
    out[arcs_[i].from].push_back(i);
    ++indeg[arcs_[i].to];
  }
  std::deque<std::uint32_t> ready;
  for (std::uint32_t n = 0; n < m.netCapacity(); ++n) {
    if (indeg[n] == 0) ready.push_back(n);
  }
  auto relax = [&](std::uint32_t arc_idx) {
    const Arc& a = arcs_[arc_idx];
    // Output rise comes from input rise (positive), input fall (negative)
    // or either (non-unate).
    double rise_src = kNegInf, fall_src = kNegInf;
    switch (a.unate) {
      case Unate::kPositive:
        rise_src = arr_rise_[a.from];
        fall_src = arr_fall_[a.from];
        break;
      case Unate::kNegative:
        rise_src = arr_fall_[a.from];
        fall_src = arr_rise_[a.from];
        break;
      case Unate::kNonUnate:
        rise_src = std::max(arr_rise_[a.from], arr_fall_[a.from]);
        fall_src = rise_src;
        break;
    }
    if (rise_src > kNegInf && rise_src + a.d_rise > arr_rise_[a.to]) {
      arr_rise_[a.to] = rise_src + a.d_rise;
      pred_rise_[a.to] = static_cast<std::int32_t>(arc_idx);
    }
    if (fall_src > kNegInf && fall_src + a.d_fall > arr_fall_[a.to]) {
      arr_fall_[a.to] = fall_src + a.d_fall;
      pred_fall_[a.to] = static_cast<std::int32_t>(arc_idx);
    }
  };
  while (!ready.empty()) {
    std::uint32_t n = ready.front();
    ready.pop_front();
    for (std::uint32_t arc_idx : out[n]) {
      relax(arc_idx);
      if (--indeg[arcs_[arc_idx].to] == 0) {
        ready.push_back(arcs_[arc_idx].to);
      }
    }
  }

  // Worst endpoint.
  worst_ = 0.0;
  for (const Endpoint& e : endpoints_) {
    for (bool rise : {true, false}) {
      double a = (rise ? arr_rise_ : arr_fall_)[e.net];
      if (a == kNegInf) continue;
      if (a + e.setup > worst_) {
        worst_ = a + e.setup;
        worst_net_ = e.net;
        worst_rise_ = rise;
      }
    }
  }
}

double Sta::criticalPathNs() const { return worst_; }

std::vector<PathStep> Sta::criticalPath() const {
  const netlist::Module& m = *module_;
  const netlist::NameTable& names = m.design().names();
  std::vector<PathStep> path;
  std::uint32_t net = worst_net_;
  bool rise = worst_rise_;
  int guard = 0;
  for (;;) {
    if (++guard > 100000) break;
    PathStep step;
    step.net = std::string(m.netName(netlist::NetId{net}));
    step.arrival_ns = (rise ? arr_rise_ : arr_fall_)[net];
    step.rising = rise;
    std::int32_t p = (rise ? pred_rise_ : pred_fall_)[net];
    if (p < 0) {
      path.push_back(step);
      break;
    }
    const Arc& a = arcs_[static_cast<std::size_t>(p)];
    step.through_cell = std::string(names.str(m.cell(a.cell).name));
    path.push_back(step);
    net = a.from;
    switch (a.unate) {
      case Unate::kPositive:
        break;
      case Unate::kNegative:
        rise = !rise;
        break;
      case Unate::kNonUnate:
        rise = arr_rise_[a.from] >= arr_fall_[a.from];
        break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<double> Sta::combDelayToSeq(std::string_view cell) const {
  const netlist::Module& m = *module_;
  netlist::CellId cid = m.findCell(cell);
  if (!cid.valid()) return std::nullopt;
  double worst = kNegInf;
  for (const Endpoint& e : endpoints_) {
    if (!(e.cell == cid)) continue;
    for (const auto* arr : {&arr_rise_, &arr_fall_}) {
      double a = (*arr)[e.net];
      if (a > kNegInf) worst = std::max(worst, a + e.setup);
    }
  }
  if (worst == kNegInf) return std::nullopt;
  return worst;
}

std::optional<double> Sta::arrivalNs(std::string_view net) const {
  netlist::NetId id = module_->findNet(net);
  if (!id.valid()) return std::nullopt;
  double a = std::max(arr_rise_[id.value], arr_fall_[id.value]);
  if (a == kNegInf) return std::nullopt;
  return a;
}

std::optional<double> Sta::portToPortNs(std::string_view from,
                                        std::string_view to,
                                        bool rising_out) const {
  const netlist::Module& m = *module_;
  netlist::PortId from_port = m.findPort(from);
  netlist::PortId to_port = m.findPort(to);
  if (!from_port.valid() || !to_port.valid()) return std::nullopt;
  return netToNetNs(m.netName(m.port(from_port).net),
                    m.netName(m.port(to_port).net), rising_out);
}

std::optional<double> Sta::netToNetNs(std::string_view from,
                                      std::string_view to,
                                      bool rising_out) const {
  const netlist::Module& m = *module_;
  netlist::NetId from_net = m.findNet(from);
  netlist::NetId to_net = m.findNet(to);
  if (!from_net.valid() || !to_net.valid()) return std::nullopt;
  const std::uint32_t src = from_net.value;
  const std::uint32_t dst = to_net.value;

  // Dedicated propagation from the single source.
  std::vector<double> rise(m.netCapacity(), kNegInf);
  std::vector<double> fall(m.netCapacity(), kNegInf);
  rise[src] = fall[src] = 0.0;
  // Constants known (select pins etc. launch nothing).
  std::vector<std::uint32_t> indeg(m.netCapacity(), 0);
  std::vector<std::vector<std::uint32_t>> out(m.netCapacity());
  for (std::uint32_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i].disabled) continue;
    out[arcs_[i].from].push_back(i);
    ++indeg[arcs_[i].to];
  }
  std::deque<std::uint32_t> ready;
  for (std::uint32_t n = 0; n < m.netCapacity(); ++n) {
    if (indeg[n] == 0) ready.push_back(n);
  }
  while (!ready.empty()) {
    std::uint32_t n = ready.front();
    ready.pop_front();
    for (std::uint32_t ai : out[n]) {
      const Arc& a = arcs_[ai];
      double rs = kNegInf, fs = kNegInf;
      switch (a.unate) {
        case Unate::kPositive:
          rs = rise[a.from];
          fs = fall[a.from];
          break;
        case Unate::kNegative:
          rs = fall[a.from];
          fs = rise[a.from];
          break;
        case Unate::kNonUnate:
          rs = fs = std::max(rise[a.from], fall[a.from]);
          break;
      }
      if (rs > kNegInf) rise[a.to] = std::max(rise[a.to], rs + a.d_rise);
      if (fs > kNegInf) fall[a.to] = std::max(fall[a.to], fs + a.d_fall);
      if (--indeg[a.to] == 0) ready.push_back(a.to);
    }
  }
  double result = rising_out ? rise[dst] : fall[dst];
  if (result == kNegInf) return std::nullopt;
  return result;
}

double Sta::worstSetupSlackNs(double period_ns) const {
  return period_ns - worst_;
}

double Sta::minPeriodNs() const { return worst_; }

std::vector<double> Sta::regionWorstDelays(
    const std::vector<std::vector<netlist::CellId>>& region_cells,
    std::string_view seq_suffix) const {
  const netlist::Module& m = *module_;
  std::vector<double> worst(region_cells.size(), 0.0);
  // Per-cell endpoint index: endpoints_ is built in forEachCell slot order
  // (ports appended last), but sort defensively so the per-cell lookup is
  // a binary search instead of a full endpoint scan per latch.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_cell;
  by_cell.reserve(endpoints_.size());
  for (std::uint32_t i = 0; i < endpoints_.size(); ++i) {
    if (endpoints_[i].is_port || !endpoints_[i].cell.valid()) continue;
    by_cell.emplace_back(endpoints_[i].cell.index(), i);
  }
  std::sort(by_cell.begin(), by_cell.end());
  // Each region reads only the propagated arrival arrays (const) and
  // writes its own slot; max() is order-independent, so the result does
  // not depend on scheduling.
  core::parallelFor(region_cells.size(), [&](std::size_t g) {
    trace::Span span("sta_region", "sta");
    double w = 0.0;
    for (netlist::CellId cid : region_cells[g]) {
      const std::string_view name = m.cellName(cid);
      if (name.size() < seq_suffix.size() ||
          name.substr(name.size() - seq_suffix.size()) != seq_suffix) {
        continue;
      }
      auto it = std::lower_bound(
          by_cell.begin(), by_cell.end(),
          std::make_pair(cid.index(), std::uint32_t{0}));
      for (; it != by_cell.end() && it->first == cid.index(); ++it) {
        const Endpoint& e = endpoints_[it->second];
        for (const auto* arr : {&arr_rise_, &arr_fall_}) {
          const double a = (*arr)[e.net];
          if (a > kNegInf) w = std::max(w, a + e.setup);
        }
      }
    }
    worst[g] = w;
  });
  return worst;
}

std::vector<std::unique_ptr<Sta>> analyzeCorners(
    const liberty::BoundModule& bound, std::vector<StaOptions> options) {
  std::vector<std::unique_ptr<Sta>> out(options.size());
  core::parallelFor(options.size(), [&](std::size_t i) {
    trace::Span span("sta_corner", "sta");
    out[i] = std::make_unique<Sta>(bound, std::move(options[i]));
  });
  return out;
}

}  // namespace desync::sta
