#include "liberty/bound.h"

#include <string>
#include <unordered_map>

namespace desync::liberty {

namespace {

/// Pin-name ids of one bound type, used only during binding.
struct TypeNameIds {
  std::vector<netlist::NameId> pins;  // aligned with LibCell::pins
};

}  // namespace

BoundModule::BoundModule(const netlist::Module& module,
                         const Gatefile& gatefile)
    : module_(&module), gatefile_(&gatefile) {
  const Library& lib = gatefile.library();
  const netlist::NameTable& names = module.design().names();
  const std::uint32_t n_cells = module.cellCapacity();

  type_of_.assign(n_cells, -1);
  pin_base_.assign(n_cells, 0);
  slot_base_.assign(n_cells, 0);

  // One string-keyed resolution per *distinct* type name.
  std::unordered_map<netlist::NameId, std::int32_t> type_index;
  std::vector<TypeNameIds> type_names;

  auto bindType = [&](netlist::NameId type_name) -> std::int32_t {
    auto [it, inserted] = type_index.try_emplace(type_name, -1);
    if (!inserted) return it->second;
    const std::string type_str(names.str(type_name));
    const LibCell* lc = lib.findCell(type_str);
    if (lc == nullptr) return -1;  // unbound (hierarchy / unknown type)

    BoundType bt;
    bt.cell = lc;
    bt.kind = lc->kind;
    bt.area = lc->area;
    bt.leakage = lc->leakage;
    bt.n_pins = static_cast<std::uint16_t>(lc->pins.size());
    bt.seq = gatefile.seqClass(type_str);

    TypeNameIds ids;
    ids.pins.reserve(lc->pins.size());
    for (const LibPin& p : lc->pins) {
      // find() (not intern): a pin name no instance ever connects may be
      // absent from the table; such pins simply bind to no net.
      ids.pins.push_back(names.find(p.name));
    }

    for (std::size_t j = 0; j < lc->pins.size(); ++j) {
      const LibPin& p = lc->pins[j];
      if (p.dir != PinDir::kOutput) continue;
      bt.output_pins.push_back(static_cast<std::uint16_t>(j));
      if (lc->kind != CellKind::kCombinational || p.function.empty()) {
        continue;
      }
      const auto& vars = p.function.vars();
      if (vars.size() > 6) {
        throw BindError("gate with >6 inputs: " + type_str);
      }
      BoundOutput out;
      out.pin = static_cast<std::uint16_t>(j);
      out.table = p.function.truthTable();
      out.inputs.reserve(vars.size());
      out.input_arcs.reserve(vars.size());
      for (const std::string& v : vars) {
        const std::size_t in_idx = lc->pinIndex(v);
        if (in_idx == LibCell::npos) {
          throw BindError("function of " + type_str + "/" + p.name +
                          " references non-pin '" + v + "'");
        }
        out.inputs.push_back(static_cast<std::uint16_t>(in_idx));
        const TimingArc* matched = nullptr;
        for (const TimingArc& a : p.arcs) {
          if (a.type != ArcType::kCombinational &&
              a.type != ArcType::kClockToQ) {
            continue;
          }
          if (a.related_pin == v) {
            matched = &a;
            break;
          }
        }
        out.input_arcs.push_back(matched);
      }
      bt.outputs.push_back(std::move(out));
    }

    if (bt.seq != nullptr) {
      auto role = [&](const std::string& pin) -> std::int16_t {
        if (pin.empty()) return -1;
        const std::size_t j = lc->pinIndex(pin);
        return j == LibCell::npos ? -1 : static_cast<std::int16_t>(j);
      };
      bt.seq_pins.clock = role(bt.seq->clock_pin);
      bt.seq_pins.data = role(bt.seq->data_pin);
      bt.seq_pins.scan_in = role(bt.seq->scan_in);
      bt.seq_pins.scan_en = role(bt.seq->scan_enable);
      bt.seq_pins.sync = role(bt.seq->sync_pin);
      bt.seq_pins.clear = role(bt.seq->async_clear_pin);
      bt.seq_pins.preset = role(bt.seq->async_preset_pin);
      bt.seq_pins.q = role(bt.seq->q_pin);
      bt.seq_pins.qn = role(bt.seq->qn_pin);
    }

    const std::int32_t idx = static_cast<std::int32_t>(types_.size());
    types_.push_back(std::move(bt));
    type_names.push_back(std::move(ids));
    it->second = idx;
    return idx;
  };

  // Per-instance pin binding: match netlist pin slots to library pins by
  // interned NameId (integer compares only).
  std::vector<bool> claimed;
  module.forEachCell([&](netlist::CellId cid) {
    const netlist::Cell& cell = module.cell(cid);
    const std::int32_t t = bindType(cell.type);
    type_of_[cid.index()] = t;
    slot_base_[cid.index()] = static_cast<std::uint32_t>(slot_pin_.size());
    pin_base_[cid.index()] = static_cast<std::uint32_t>(pin_net_.size());
    if (t < 0) {
      ++unbound_;
      slot_pin_.insert(slot_pin_.end(), cell.pin_count, std::int16_t{-1});
      return;
    }
    const TypeNameIds& ids = type_names[static_cast<std::size_t>(t)];
    const std::size_t n_lib = ids.pins.size();
    pin_net_.resize(pin_net_.size() + n_lib);  // NetId{} = unconnected
    const std::size_t pin_base = pin_base_[cid.index()];
    // First slot wins per library pin, matching Module::pinNet's
    // first-match semantics on (malformed) duplicate pin connections.
    claimed.assign(n_lib, false);
    for (const netlist::PinConn& pc : module.pins(cid)) {
      std::int16_t match = -1;
      for (std::size_t j = 0; j < n_lib; ++j) {
        if (ids.pins[j] == pc.name) {
          match = static_cast<std::int16_t>(j);
          if (!claimed[j]) {
            claimed[j] = true;
            pin_net_[pin_base + j] = pc.net;
          }
          break;
        }
      }
      slot_pin_.push_back(match);
    }
  });

  // Net loads: wire cap per sink plus bound input-pin capacitances.
  net_load_.assign(module.netCapacity(), 0.0);
  module.forEachNet([&](netlist::NetId id) {
    double load = 0.0;
    for (const netlist::TermRef& s : module.sinks(id)) {
      load += lib.default_wire_cap;
      if (!s.isCellPin()) continue;
      const LibPin* lp = libPinOfSlot(s.cell(), s.pin);
      if (lp != nullptr) load += lp->capacitance;
    }
    net_load_[id.value] = load;
  });
}

const BoundType& BoundModule::typeOrThrow(netlist::CellId id) const {
  const BoundType* t = typeOf(id);
  if (t == nullptr) {
    throw BindError("unknown cell type (flatten first?): " +
                    std::string(module_->cellType(id)));
  }
  return *t;
}

const LibPin* BoundModule::libPinOfSlot(netlist::CellId cell,
                                        std::size_t slot) const {
  const BoundType* t = typeOf(cell);
  if (t == nullptr) return nullptr;
  const std::int16_t j = slot_pin_[slot_base_[cell.index()] + slot];
  return j < 0 ? nullptr : &t->cell->pins[static_cast<std::size_t>(j)];
}

}  // namespace desync::liberty
