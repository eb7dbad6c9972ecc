#include "core/control_network.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "async/celement.h"
#include "async/delay_element.h"
#include "core/buffering.h"
#include "netlist/flatten.h"
#include "sta/sta.h"

namespace desync::core {

using netlist::Design;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

namespace {

/// Longest delay element the flow builds, in stages.
constexpr int kMaxDelayLevels = 200;

/// Rise delay of one AND stage of the asymmetric delay element under
/// nominal conditions (thesis §3.1.4), a pure function of the library.
double characterizeDelayStageNs(const liberty::Gatefile& gatefile) {
  // Elements of 1..100 levels are implemented and measured with STA
  // (thesis §3.1.4); one 16-level probe gives the per-stage rise delay.
  // The probe lives in a scratch design: it is a measurement artifact,
  // and building it in the flow design would emit a dead helper module.
  async::DelayElementSpec probe;
  probe.levels = 16;
  Design scratch;
  Module& del = async::ensureDelayElement(scratch, gatefile, probe);
  sta::Sta sta(del, gatefile);
  double total = sta.portToPortNs("A", "Z", /*rising_out=*/true).value();
  return total / probe.levels;
}

}  // namespace

double delayStageNs(const liberty::Gatefile& gatefile) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, double> by_library;
  const std::uint64_t key = gatefile.library().contentHash();
  const std::lock_guard<std::mutex> lock(mu);
  if (const auto it = by_library.find(key); it != by_library.end()) {
    return it->second;
  }
  const double ns = characterizeDelayStageNs(gatefile);  // may throw
  by_library.emplace(key, ns);
  return ns;
}

RegionTiming computeRegionTiming(Module& m, const liberty::Gatefile& gatefile,
                                 const Regions& regions) {
  RegionTiming timing;
  timing.per_level_delay_ns = delayStageNs(gatefile);

  // Re-buffer the datapath first (the cleaning pass stripped the synthesis
  // buffers): the delay elements must be sized against the timing the
  // backend netlist will actually have, otherwise buffer delay added later
  // silently eats the matching margin.
  insertBufferTrees(m);

  // Region critical paths (post-substitution STA).  The matched delay
  // covers paths into each region's master latches; the per-region queries
  // are independent and run concurrently (the analysis itself is read-only
  // after construction).
  sta::Sta sta(m, gatefile);
  timing.required_delay_ns = sta.regionWorstDelays(regions.seq_cells, "_Lm");
  return timing;
}

ControlNetworkReport insertControlNetwork(
    Design& design, Module& m, const liberty::Gatefile& gatefile,
    const Regions& regions, const DependencyGraph& ddg,
    const SubstitutionResult& subst, const RegionTiming& timing,
    const ControlNetworkOptions& options) {
  ControlNetworkReport report;
  report.per_level_delay_ns = timing.per_level_delay_ns;
  const std::vector<double>& required = timing.required_delay_ns;

  // Instances are built over interned names: every pin name is already a
  // port name of the (ensured) module it instantiates, and instance names
  // are assembled in one reused buffer.
  netlist::NameTable& names = design.names();
  std::string buf;
  const auto name = [&](std::string_view base, std::string_view suffix) {
    return names.intern(buf.assign(base).append(suffix));
  };
  std::vector<netlist::PinConn> pins;

  // --- reset --------------------------------------------------------------
  NetId rst;
  if (options.reset_port.empty()) {
    rst = m.addNet("rst");
    m.addPort("rst", PortDir::kInput, rst);
  } else {
    netlist::PortId p = m.findPort(options.reset_port);
    if (!p.valid()) {
      throw netlist::NetlistError("reset port not found: " +
                                  options.reset_port);
    }
    NetId src = m.port(p).net;
    if (options.reset_active_low) {
      rst = m.addNet("drst");
      m.addCell("u_drst_inv", "IV",
                {{"A", PortDir::kInput, src}, {"Z", PortDir::kOutput, rst}});
    } else {
      rst = src;
    }
  }

  // --- mux select ports ----------------------------------------------------
  std::vector<NetId> dsel;
  if (options.mux_taps > 0) {
    int bits = options.mux_taps == 8 ? 3 : options.mux_taps == 4 ? 2 : 1;
    for (int i = 0; i < bits; ++i) {
      NetId n = m.addNet("dsel" + std::to_string(i));
      m.addPort("dsel" + std::to_string(i), PortDir::kInput, n);
      dsel.push_back(n);
    }
  }

  // --- controllers per active region ---------------------------------------
  Module& ctrl_e = async::ensureController(design, gatefile, options.controller,
                                           async::ControllerReset::kEmpty);
  Module& ctrl_f = async::ensureController(design, gatefile, options.controller,
                                           async::ControllerReset::kFull);
  const netlist::NameId pin_ri = names.intern("ri");
  const netlist::NameId pin_ao = names.intern("ao");
  const netlist::NameId pin_rst = names.intern("rst");
  const netlist::NameId pin_ai = names.intern("ai");
  const netlist::NameId pin_ro = names.intern("ro");
  const netlist::NameId pin_g = names.intern("g");

  std::vector<bool> active(static_cast<std::size_t>(regions.n_groups), false);
  for (int g = 0; g < regions.n_groups; ++g) {
    active[static_cast<std::size_t>(g)] =
        !regions.seq_cells[static_cast<std::size_t>(g)].empty();
  }

  struct Nets {
    NetId m_ri, m_ai, m_ro, m_ao, s_ri_unused, s_ai, s_ro, s_ao;
  };
  std::vector<Nets> nets(static_cast<std::size_t>(regions.n_groups));

  for (int g = 0; g < regions.n_groups; ++g) {
    if (!active[static_cast<std::size_t>(g)]) continue;
    auto gi = static_cast<std::size_t>(g);
    std::string base = "G" + std::to_string(g);
    Nets& n = nets[gi];
    n.m_ri = m.addNet(base + "_m_ri");
    n.m_ai = m.addNet(base + "_m_ai");
    n.m_ro = m.addNet(base + "_m_ro");  // master ro -> slave ri
    n.s_ai = m.addNet(base + "_s_ai");  // slave ai -> master ao
    n.s_ro = m.addNet(base + "_s_ro");
    n.s_ao = m.addNet(base + "_s_ao");

    // Ensure the enable nets exist even if the region had no flip-flops to
    // substitute (possible when a region only has latches already).
    NetId gm = subst.master_enable[gi];
    NetId gs = subst.slave_enable[gi];
    if (!gm.valid()) {
      gm = m.addNet(base + "_gm_nc");
      gs = m.addNet(base + "_gs_nc");
    }

    const netlist::PinConn master[] = {{pin_ri, PortDir::kInput, n.m_ri},
                                       {pin_ao, PortDir::kInput, n.s_ai},
                                       {pin_rst, PortDir::kInput, rst},
                                       {pin_ai, PortDir::kOutput, n.m_ai},
                                       {pin_ro, PortDir::kOutput, n.m_ro},
                                       {pin_g, PortDir::kOutput, gm}};
    m.addCell(name(base, "_M"), ctrl_e.nameId(), master);
    const netlist::PinConn slave[] = {{pin_ri, PortDir::kInput, n.m_ro},
                                      {pin_ao, PortDir::kInput, n.s_ao},
                                      {pin_rst, PortDir::kInput, rst},
                                      {pin_ai, PortDir::kOutput, n.s_ai},
                                      {pin_ro, PortDir::kOutput, n.s_ro},
                                      {pin_g, PortDir::kOutput, gs}};
    m.addCell(name(base, "_S"), ctrl_f.nameId(), slave);
    report.size_only_cells.push_back(base + "_M");
    report.size_only_cells.push_back(base + "_S");
  }

  // --- request paths: C-join of predecessors -> delay element -> m_ri ----
  for (int g = 0; g < regions.n_groups; ++g) {
    auto gi = static_cast<std::size_t>(g);
    if (!active[gi]) continue;
    std::string base = "G" + std::to_string(g);
    std::vector<int> preds;
    for (int p : ddg.preds[gi]) {
      if (active[static_cast<std::size_t>(p)]) preds.push_back(p);
    }

    NetId req_src;
    if (preds.empty()) {
      // Environment-fed region: expose a request input port.
      req_src = m.addNet(base + "_ri_ext");
      m.addPort(base + "_ri_ext", PortDir::kInput, req_src);
    } else if (preds.size() == 1) {
      req_src = nets[static_cast<std::size_t>(preds[0])].s_ro;
    } else {
      // Multiple input requests: C-Muller join (thesis §2.4.3).  All
      // requests start high at reset (slaves are full), so reset-high.
      Module& cj = async::ensureCElement(design, gatefile,
                                         static_cast<int>(preds.size()),
                                         async::ResetKind::kHigh);
      req_src = m.addNet(base + "_jr");
      const netlist::NameId cell = name(base, "_CJR");
      pins.clear();
      for (std::size_t i = 0; i < preds.size(); ++i) {
        pins.push_back({names.intern("A" + std::to_string(i)),
                        PortDir::kInput,
                        nets[static_cast<std::size_t>(preds[i])].s_ro});
      }
      pins.push_back({names.intern("RST"), PortDir::kInput, rst});
      pins.push_back({names.intern("Z"), PortDir::kOutput, req_src});
      m.addCell(cell, cj.nameId(), pins);
      report.size_only_cells.push_back(base + "_CJR");
    }

    // Delay element sized to the region's combinational critical path.
    // Clamped to the stage cap before the cast, so a huge margin cannot
    // overflow it.
    double target = required[gi] * options.margin;
    int levels = static_cast<int>(
        std::fmin(std::fmax(std::ceil(target / report.per_level_delay_ns), 1.0),
                  kMaxDelayLevels));
    if (options.mux_taps > 0) {
      // The nominal tap, where the muxed delay matches margin * critical
      // path, is the second-highest: headroom above, room to shorten.
      const int sel = std::clamp(options.mux_taps - 2, 0,
                                 options.mux_taps - 1);
      // Tap `sel` passes ~levels stages: total chain length accordingly.
      levels = std::max(
          levels, static_cast<int>(std::ceil(
                      static_cast<double>(levels) * options.mux_taps /
                      (sel + 1))));
    }
    levels = std::min(levels, kMaxDelayLevels);

    async::DelayElementSpec spec;
    spec.levels = levels;
    spec.mux_taps = options.mux_taps;
    Module& del = async::ensureDelayElement(design, gatefile, spec);
    const netlist::NameId cell = name(base, "_DE");
    pins.assign({{names.intern("A"), PortDir::kInput, req_src},
                 {names.intern("Z"), PortDir::kOutput, nets[gi].m_ri}});
    for (std::size_t i = 0; i < dsel.size(); ++i) {
      pins.push_back(
          {names.intern("S" + std::to_string(i)), PortDir::kInput, dsel[i]});
    }
    m.addCell(cell, del.nameId(), pins);

    RegionControl rc;
    rc.group = g;
    rc.master_cell = base + "_M";
    rc.slave_cell = base + "_S";
    rc.delay_levels = levels;
    rc.required_delay_ns = required[gi];
    rc.matched_delay_ns = levels * report.per_level_delay_ns;
    report.regions.push_back(rc);
  }

  // --- acknowledge paths: slave ao = C-join of successors' master ai -----
  for (int g = 0; g < regions.n_groups; ++g) {
    auto gi = static_cast<std::size_t>(g);
    if (!active[gi]) continue;
    std::string base = "G" + std::to_string(g);
    std::vector<int> succs;
    for (int s : ddg.succs[gi]) {
      if (active[static_cast<std::size_t>(s)]) succs.push_back(s);
    }
    if (succs.empty()) {
      // Environment-consumed region: loop the acknowledge back from our own
      // request so the region free-runs (the slave's data is simply always
      // "consumed"); also expose the request for observation.
      m.addPort(base + "_ro_ext", PortDir::kOutput, nets[gi].s_ro);
      m.mergeNetInto(nets[gi].s_ao, nets[gi].s_ro);
      continue;
    }
    if (succs.size() == 1) {
      m.mergeNetInto(nets[gi].s_ao,
                     nets[static_cast<std::size_t>(succs[0])].m_ai);
      continue;
    }
    Module& cj = async::ensureCElement(design, gatefile,
                                       static_cast<int>(succs.size()),
                                       async::ResetKind::kLow);
    pins.clear();
    for (std::size_t i = 0; i < succs.size(); ++i) {
      pins.push_back({names.intern("A" + std::to_string(i)), PortDir::kInput,
                      nets[static_cast<std::size_t>(succs[i])].m_ai});
    }
    pins.push_back({names.intern("RST"), PortDir::kInput, rst});
    NetId join = m.addNet(base + "_ja");
    pins.push_back({names.intern("Z"), PortDir::kOutput, join});
    m.addCell(name(base, "_CJA"), cj.nameId(), pins);
    report.size_only_cells.push_back(base + "_CJA");
    m.mergeNetInto(nets[gi].s_ao, join);
  }

  // --- flatten the inserted controller/C-element/delay modules ------------
  netlist::flatten(m);

  // Backend re-buffering: balanced enable trees (CTS-lite, thesis §4.7)
  // plus restoration of the drive buffers the cleaning pass removed.
  insertBufferTrees(m);

  // --- loop cuts for STA (thesis §4.6.1): every C-element keeper feedback
  // and every controller occupancy feedback, by flattened cell name.
  const netlist::NameId maj3 = names.find("MAJ3");
  const netlist::NameId aoi21 = names.find("AOI21");
  m.forEachCell([&](netlist::CellId cid) {
    const netlist::Cell& c = m.cell(cid);
    if (c.type != maj3 && c.type != aoi21) return;
    const std::string_view cell = names.str(c.name);
    if (c.type == maj3 && cell.find("_maj") != std::string_view::npos) {
      report.loop_cuts.push_back(sta::DisabledArc{std::string(cell), "C"});
    }
    if (c.type == aoi21 && cell.size() > 5 && cell.ends_with("/u_dn")) {
      report.loop_cuts.push_back(sta::DisabledArc{std::string(cell), "A"});
    }
  });

  return report;
}

}  // namespace desync::core
