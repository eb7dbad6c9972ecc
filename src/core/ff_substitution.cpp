#include "core/ff_substitution.h"

#include <array>
#include <cassert>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace desync::core {

using netlist::CellId;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

namespace {

/// Book-keeping helper: registers a new cell in the regions structure.
void track(Regions& regions, Module& m, CellId id, int group, bool seq) {
  if (regions.group_of_cell.size() < m.cellCapacity()) {
    regions.group_of_cell.resize(m.cellCapacity(), -1);
  }
  regions.group_of_cell[id.index()] = group;
  if (group < 0) return;
  auto& list = seq ? regions.seq_cells[static_cast<std::size_t>(group)]
                   : regions.comb_cells[static_cast<std::size_t>(group)];
  list.push_back(id);
}

/// A fixed cell-type or pin name, interned on its first use (so names enter
/// the table in the order the cells need them) and reused after.
class FixedName {
 public:
  explicit FixedName(std::string_view text) : text_(text) {}
  netlist::NameId operator()(netlist::NameTable& names) {
    if (!id_.valid()) id_ = names.intern(text_);
    return id_;
  }

 private:
  std::string_view text_;
  netlist::NameId id_;
};

/// Builds the glue and latch cells.  A cell or net name is `base` +
/// `suffix` (+ "_ds<n>" for a fresh net), assembled in one reused buffer.
struct Builder {
  Builder(Module& m, const liberty::Gatefile& gf, Regions& regions,
          SubstitutionResult& result)
      : m(m), names(m.design().names()), regions(regions), result(result),
        latch_type(gf.simpleLatch()) {}

  Module& m;
  netlist::NameTable& names;
  Regions& regions;
  SubstitutionResult& result;
  std::uint64_t counter = 0;
  std::string buf;
  FixedName pin_a{"A"}, pin_b{"B"}, pin_s{"S"}, pin_z{"Z"};
  FixedName pin_d{"D"}, pin_g{"G"}, pin_q{"Q"};
  FixedName iv{"IV"}, mux21{"MUX21"}, an2{"AN2"}, an2b1{"AN2B1"};
  FixedName or2{"OR2"}, or2b1{"OR2B1"}, latch_type;

  struct Pin {
    FixedName* name;
    PortDir dir;
    NetId net;
  };

  NetId newNet(std::string_view base, std::string_view suffix = {}) {
    buf.assign(base).append(suffix).append("_ds").append(
        std::to_string(counter++));
    return m.addNet(names.intern(buf));
  }

  CellId add(std::string_view base, std::string_view suffix, FixedName& type,
             std::initializer_list<Pin> pins) {
    const netlist::NameId name = names.intern(buf.assign(base).append(suffix));
    const netlist::NameId type_id = type(names);
    std::array<netlist::PinConn, 4> conns;
    assert(pins.size() <= conns.size());
    std::size_t n = 0;
    for (const Pin& p : pins) conns[n++] = {(*p.name)(names), p.dir, p.net};
    return m.addCell(name, type_id, std::span(conns.data(), n));
  }

  CellId comb(std::string_view base, std::string_view suffix,
              FixedName& type, int group, std::initializer_list<Pin> pins) {
    CellId id = add(base, suffix, type, pins);
    track(regions, m, id, group, /*seq=*/false);
    ++result.glue_cells_added;
    return id;
  }

  NetId gate2(std::string_view base, std::string_view suffix,
              FixedName& type, int group, NetId a, NetId b) {
    NetId z = newNet(base, suffix);
    comb(base, suffix, type, group,
         {{&pin_a, PortDir::kInput, a},
          {&pin_b, PortDir::kInput, b},
          {&pin_z, PortDir::kOutput, z}});
    return z;
  }

  CellId latch(std::string_view base, std::string_view suffix, int group,
               NetId d, NetId g, NetId q) {
    CellId id = add(base, suffix, latch_type,
                    {{&pin_d, PortDir::kInput, d},
                     {&pin_g, PortDir::kInput, g},
                     {&pin_q, PortDir::kOutput, q}});
    track(regions, m, id, group, /*seq=*/true);
    return id;
  }
};

}  // namespace

SubstitutionResult substituteFlipFlops(Module& module,
                                       const liberty::Gatefile& gatefile,
                                       Regions& regions) {
  SubstitutionResult result;
  result.master_enable.assign(static_cast<std::size_t>(regions.n_groups),
                              NetId{});
  result.slave_enable.assign(static_cast<std::size_t>(regions.n_groups),
                             NetId{});
  Builder b(module, gatefile, regions, result);

  // The enable-forcing gates for asynchronous controls (Fig 3.1c) depend
  // only on (region enable, control net, polarity) — share them across all
  // flip-flops of a region instead of duplicating per bit, as a synthesis
  // tool would.
  std::map<std::tuple<std::uint32_t, std::uint32_t, bool>, NetId>
      forced_enable_cache;
  auto forcedEnable = [&](int group, NetId enable, NetId ctrl,
                          bool active_low, const char* tag) {
    auto key = std::make_tuple(enable.value, ctrl.value, active_low);
    auto it = forced_enable_cache.find(key);
    if (it != forced_enable_cache.end()) return it->second;
    const std::string name = "G" + std::to_string(group) + "_" + tag + "_" +
                             std::to_string(b.counter++);
    NetId out = b.gate2(name, {}, active_low ? b.or2b1 : b.or2, group, enable,
                        ctrl);
    forced_enable_cache.emplace(key, out);
    return out;
  };

  auto enables = [&](int g) -> std::pair<NetId, NetId> {
    auto gi = static_cast<std::size_t>(g);
    if (!result.master_enable[gi].valid()) {
      result.master_enable[gi] =
          module.addNet("G" + std::to_string(g) + "_gm");
      result.slave_enable[gi] =
          module.addNet("G" + std::to_string(g) + "_gs");
    }
    return {result.master_enable[gi], result.slave_enable[gi]};
  };

  // Pre-pass: integrated clock gates.  Each CGL becomes a latched gating
  // condition ANDed into the enables of the flip-flops it clocks
  // (Fig 3.1d); record gating nets per (CGL output net).
  struct Gating {
    NetId cen_master;  ///< AND term for the master enable
    NetId cen_slave;   ///< AND term for the slave enable (re-latched so it
                       ///< is stable throughout the slave pulse)
  };
  std::unordered_map<std::uint32_t, Gating> gated_clock_nets;
  std::vector<CellId> removed_gates;
  std::vector<CellId> clock_gates;
  module.forEachCell([&](CellId cid) {
    if (gatefile.kind(module.cellType(cid)) == liberty::CellKind::kClockGate) {
      clock_gates.push_back(cid);
    }
  });
  for (CellId cg : clock_gates) {
    const liberty::SeqClass* sc = gatefile.seqClass(module.cellType(cg));
    NetId e_net = module.pinNet(cg, sc->data_pin);
    NetId z_net = module.pinNet(cg, sc->q_pin);
    // Which group do the gated flip-flops live in?  Take the group of the
    // first sequential sink.
    int group = -1;
    if (z_net.valid()) {
      for (const netlist::TermRef& t : module.sinks(z_net)) {
        if (t.isCellPin()) {
          int g = regions.group_of_cell[t.cell().index()];
          if (g >= 0) {
            group = g;
            break;
          }
        }
      }
    }
    if (group < 0 || !e_net.valid()) continue;
    auto [gm, gs] = enables(group);
    const std::string_view base = module.cellName(cg);
    // Fig 3.1(d): the gating condition is latched while the master enable
    // is low (mirror of the integrated clock gate's low-phase latch), and
    // re-latched against the slave enable so each AND term is stable for
    // the whole duration of the pulse it gates.
    NetId gmn = b.newNet(base, "_gmn");
    b.comb(base, "_minv", b.iv, group,
           {{&b.pin_a, PortDir::kInput, gm},
            {&b.pin_z, PortDir::kOutput, gmn}});
    NetId cen_m = b.newNet(base, "_cenm");
    b.latch(base, "_cenLm", group, e_net, gmn, cen_m);
    NetId gsn = b.newNet(base, "_gsn");
    b.comb(base, "_sinv", b.iv, group,
           {{&b.pin_a, PortDir::kInput, gs},
            {&b.pin_z, PortDir::kOutput, gsn}});
    NetId cen_s = b.newNet(base, "_cens");
    b.latch(base, "_cenLs", group, cen_m, gsn, cen_s);
    gated_clock_nets.emplace(z_net.value, Gating{cen_m, cen_s});
    removed_gates.push_back(cg);
  }
  module.removeCells(removed_gates);
  auto gatingFor = [&](NetId clock_net) -> const Gating* {
    if (!clock_net.valid()) return nullptr;
    auto it = gated_clock_nets.find(clock_net.value);
    return it == gated_clock_nets.end() ? nullptr : &it->second;
  };

  // Snapshot flip-flops before mutating.
  std::vector<CellId> ffs;
  module.forEachCell([&](CellId cid) {
    if (gatefile.isFlipFlop(module.cellType(cid))) {
      ffs.push_back(cid);
    }
  });

  // The SeqClass names pins as strings; resolving them through findPin()
  // re-hashes each string once per flip-flop.  Resolve them to interned
  // NameIds once per flip-flop *type* and match pins by integer compare.
  struct SeqPinIds {
    netlist::NameId d, si, se, sync, clear, preset, clock, q, qn;
  };
  std::unordered_map<std::uint32_t, SeqPinIds> seq_pin_ids;
  const netlist::NameTable& names = module.design().names();
  auto pinIdsFor = [&](netlist::NameId type,
                       const liberty::SeqClass* sc) -> const SeqPinIds& {
    auto [it, fresh] = seq_pin_ids.try_emplace(type.value);
    if (fresh) {
      auto find = [&](const std::string& p) {
        return p.empty() ? netlist::NameId{} : names.find(p);
      };
      it->second = SeqPinIds{find(sc->data_pin),         find(sc->scan_in),
                             find(sc->scan_enable),      find(sc->sync_pin),
                             find(sc->async_clear_pin),
                             find(sc->async_preset_pin), find(sc->clock_pin),
                             find(sc->q_pin),            find(sc->qn_pin)};
    }
    return it->second;
  };

  // Gather every flip-flop's pin bindings first, then tombstone them all
  // in one removeCells sweep: per-cell removal pays one scan of the shared
  // clock/reset nets' sinks per flip-flop — quadratic in register count.
  struct FfInfo {
    const liberty::SeqClass* sc;
    int group;
    std::string_view name;  ///< into the name table, which outlives the cell
    NetId d, si, se, sync, clear, preset, clock, q, qn;
  };
  std::vector<FfInfo> infos;
  infos.reserve(ffs.size());
  for (CellId ff : ffs) {
    const netlist::NameId type = module.cell(ff).type;
    const liberty::SeqClass* sc = gatefile.seqClass(module.cellType(ff));
    const int group = regions.group_of_cell[ff.index()];
    if (group < 0) {
      throw netlist::NetlistError("flip-flop outside any region: " +
                                  std::string(module.cellName(ff)));
    }
    const SeqPinIds& ids = pinIdsFor(type, sc);
    const std::span<const netlist::PinConn> pins = module.pins(ff);
    auto pin = [&](netlist::NameId pid) -> NetId {
      if (!pid.valid()) return NetId{};
      for (const netlist::PinConn& pc : pins) {
        if (pc.name == pid) return pc.net;
      }
      return NetId{};
    };
    infos.push_back(FfInfo{sc, group, module.cellName(ff),
                           pin(ids.d), pin(ids.si), pin(ids.se),
                           pin(ids.sync), pin(ids.clear), pin(ids.preset),
                           pin(ids.clock), pin(ids.q), pin(ids.qn)});
  }
  // Remove the flip-flops; their nets stay.  Drop the group memberships
  // of the removed slots.
  module.removeCells(ffs);
  for (CellId ff : ffs) {
    regions.group_of_cell[ff.index()] = -1;
  }

  for (const FfInfo& info : infos) {
    const liberty::SeqClass* sc = info.sc;
    const int group = info.group;
    auto [gm, gs] = enables(group);
    const std::string_view name = info.name;
    NetId d = info.d;
    const NetId si = info.si;
    const NetId se = info.se;
    const NetId sync = info.sync;
    const NetId clear = info.clear;
    const NetId preset = info.preset;
    NetId q = info.q;
    const NetId qn = info.qn;
    const bool sync_low = sc->sync_active_low;
    const bool sync_set = sc->sync_is_set;
    const bool clear_low = sc->async_clear_active_low;
    const bool preset_low = sc->async_preset_active_low;
    const Gating* gating = gatingFor(info.clock);

    // --- master data chain -------------------------------------------
    if (!d.valid()) d = module.constNet(false);
    if (se.valid()) {
      // Scan mux (Fig 3.1a): D when SE=0, SI when SE=1.
      NetId z = b.newNet(name, "_scm");
      b.comb(name, "_scmux", b.mux21, group,
             {{&b.pin_a, PortDir::kInput, d},
              {&b.pin_b, PortDir::kInput, si},
              {&b.pin_s, PortDir::kInput, se},
              {&b.pin_z, PortDir::kOutput, z}});
      d = z;
    }
    if (sync.valid()) {
      // Synchronous set/reset (Fig 3.1b).
      if (sync_set) {
        d = b.gate2(name, "_sys", sync_low ? b.or2b1 : b.or2, group, d, sync);
      } else {
        d = b.gate2(name, "_syr", sync_low ? b.an2 : b.an2b1, group, d, sync);
      }
    }

    NetId gm_eff = gm;
    NetId gs_eff = gs;
    if (gating != nullptr) {
      gm_eff = b.gate2(name, "_cgm", b.an2, group, gm, gating->cen_master);
      gs_eff = b.gate2(name, "_cgs", b.an2, group, gs, gating->cen_slave);
    }

    // Async controls (Fig 3.1c): force the latches transparent while the
    // control is asserted and gate the data so the forced value flows.
    NetId slave_gate_clear, slave_gate_preset;
    if (clear.valid()) {
      d = b.gate2(name, "_acm", clear_low ? b.an2 : b.an2b1, group, d, clear);
      gm_eff = forcedEnable(group, gm_eff, clear, clear_low, "agm");
      gs_eff = forcedEnable(group, gs_eff, clear, clear_low, "ags");
      slave_gate_clear = clear;
    }
    if (preset.valid()) {
      d = b.gate2(name, "_apm", preset_low ? b.or2b1 : b.or2, group, d,
                  preset);
      gm_eff = forcedEnable(group, gm_eff, preset, preset_low, "apgm");
      gs_eff = forcedEnable(group, gs_eff, preset, preset_low, "apgs");
      slave_gate_preset = preset;
    }

    // --- the latch pair ------------------------------------------------
    NetId mq = b.newNet(name, "_mq");
    b.latch(name, "_Lm", group, d, gm_eff, mq);
    NetId sd = mq;
    if (slave_gate_clear.valid()) {
      sd = b.gate2(name, "_acs", clear_low ? b.an2 : b.an2b1, group, sd,
                   slave_gate_clear);
    }
    if (slave_gate_preset.valid()) {
      sd = b.gate2(name, "_aps", preset_low ? b.or2b1 : b.or2, group, sd,
                   slave_gate_preset);
    }
    if (!q.valid()) q = b.newNet(name, "_q");
    b.latch(name, "_Ls", group, sd, gs_eff, q);
    if (qn.valid()) {
      b.comb(name, "_qninv", b.iv, group,
             {{&b.pin_a, PortDir::kInput, q},
              {&b.pin_z, PortDir::kOutput, qn}});
    }
    ++result.ffs_replaced;
  }

  // Drop the removed flip-flops from the region membership lists.
  for (auto& list : regions.seq_cells) {
    std::erase_if(list,
                  [&](CellId id) { return !module.isLiveCell(id); });
  }
  for (auto& list : regions.comb_cells) {
    std::erase_if(list,
                  [&](CellId id) { return !module.isLiveCell(id); });
  }

  return result;
}

}  // namespace desync::core
