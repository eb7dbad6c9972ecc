#include "core/regions.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_set>

#include "netlist/cleaning.h"

namespace desync::core {

using netlist::CellId;
using netlist::Module;
using netlist::NetId;

namespace {

/// Union-find over cell slots.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(b)] = a;
  }

 private:
  std::vector<int> parent_;
};

/// Library class of every cell slot: combinational, sequential, or neither
/// (a type the library lacks, or a tombstoned slot).  One library lookup
/// per distinct type, where the passes' visits would pay one string-keyed
/// lookup per cell per neighbor.
class CellClasses {
 public:
  CellClasses(const Module& module, const liberty::Gatefile& gatefile)
      : bits_(module.cellCapacity(), 0) {
    netlist::NameIndex by_type;  // type NameId -> class bits
    module.forEachCell([&](CellId id) {
      const netlist::NameId type = module.cell(id).type;
      std::uint32_t bits = by_type.find(type);
      if (bits == netlist::NameIndex::kNone) {
        const std::string_view name = module.cellType(id);
        bits = (gatefile.isCombinational(name) ? kComb : 0u) |
               (gatefile.isSequential(name) ? kSeq : 0u);
        by_type.insert(type, bits);
      }
      bits_[id.index()] = static_cast<std::uint8_t>(bits);
    });
  }
  [[nodiscard]] bool comb(CellId id) const {
    return (bits_[id.index()] & kComb) != 0;
  }
  [[nodiscard]] bool seq(CellId id) const {
    return (bits_[id.index()] & kSeq) != 0;
  }

 private:
  static constexpr std::uint32_t kComb = 1;
  static constexpr std::uint32_t kSeq = 2;
  std::vector<std::uint8_t> bits_;
};

}  // namespace

Regions groupRegions(Module& module, const liberty::Gatefile& gatefile,
                     const GroupingOptions& options) {
  if (options.clean_logic) {
    netlist::CleaningRules rules;
    rules.is_buffer = [&](std::string_view t) {
      return gatefile.isBuffer(t);
    };
    rules.is_inverter = [&](std::string_view t) {
      return gatefile.isInverter(t);
    };
    netlist::cleanLogic(module, rules);
  }

  // False-path nets by id.
  std::unordered_set<std::uint32_t> skip_nets;
  for (const std::string& name : options.false_path_nets) {
    NetId id = module.findNet(name);
    if (id.valid()) skip_nets.insert(id.value);
  }
  module.forEachNet([&](NetId id) {
    if (module.net(id).false_path) skip_nets.insert(id.value);
  });
  auto usable = [&](NetId id) {
    return id.valid() && skip_nets.count(id.value) == 0;
  };

  const std::uint32_t n_slots = module.cellCapacity();
  UnionFind uf(n_slots);

  const CellClasses classes(module, gatefile);
  auto isComb = [&](CellId id) { return classes.comb(id); };
  auto isSeq = [&](CellId id) { return classes.seq(id); };
  /// Data output nets of a sequential cell (Q/QN); its non-clock inputs are
  /// "data side" for dependency purposes.
  auto driverCell = [&](NetId net) -> CellId {
    const netlist::TermRef& d = module.net(net).driver;
    return d.isCellPin() ? d.cell() : CellId{};
  };

  // ---- Step 1: connected components of combinational gates, extended by
  // directly driven sequential cells.
  module.forEachCell([&](CellId cid) {
    if (!isComb(cid)) return;
    for (const netlist::PinConn& pin : module.pins(cid)) {
      if (!usable(pin.net)) continue;
      if (pin.dir == netlist::PortDir::kInput) {
        // Combinational source cells merge into this cloud.
        CellId src = driverCell(pin.net);
        if (src.valid() && isComb(src)) {
          uf.unite(static_cast<int>(cid.value), static_cast<int>(src.value));
        }
      } else {
        // Combinational and sequential targets.
        for (const netlist::TermRef& t : module.sinks(pin.net)) {
          if (!t.isCellPin()) continue;
          CellId dst = t.cell();
          if (isComb(dst) || isSeq(dst)) {
            uf.unite(static_cast<int>(cid.value),
                     static_cast<int>(dst.value));
          }
        }
      }
    }
  });

  // Bus heuristic: cells driving bits of the same bus group together.
  if (options.bus_heuristic) {
    std::map<std::uint32_t, CellId> bus_rep;  // bus NameId -> representative
    module.forEachNet([&](NetId nid) {
      const netlist::Net& n = module.net(nid);
      if (!n.bus.valid() || !usable(nid)) return;
      CellId drv = driverCell(nid);
      if (!drv.valid()) return;
      auto [it, inserted] = bus_rep.emplace(n.bus.bus.value, drv);
      if (!inserted) {
        uf.unite(static_cast<int>(it->second.value),
                 static_cast<int>(drv.value));
      }
    });
  }

  // ---- Step 2: sequential cells directly driven by grouped sequential
  // cells join the driver's group (signal-history chains).
  // "Grouped" after step 1 = in a component that contains >= 1 comb cell.
  std::vector<bool> grouped(n_slots, false);
  module.forEachCell([&](CellId cid) {
    if (isComb(cid)) grouped[uf.find(static_cast<int>(cid.value))] = true;
  });
  auto isGrouped = [&](CellId cid) {
    return grouped[static_cast<std::size_t>(
        uf.find(static_cast<int>(cid.value)))];
  };
  bool changed = true;
  while (changed) {
    changed = false;
    module.forEachCell([&](CellId cid) {
      if (!isSeq(cid) || isGrouped(cid)) return;
      for (const netlist::PinConn& pin : module.pins(cid)) {
        if (pin.dir != netlist::PortDir::kInput || !usable(pin.net)) continue;
        CellId src = driverCell(pin.net);
        if (src.valid() && isSeq(src) && isGrouped(src)) {
          uf.unite(static_cast<int>(src.value),
                   static_cast<int>(cid.value));
          grouped[static_cast<std::size_t>(
              uf.find(static_cast<int>(cid.value)))] = true;
          changed = true;
          return;
        }
      }
    });
  }

  // ---- Step 3 + numbering.  Group 0 collects the remaining sequential
  // cells (input registers).  Components containing sequential cells get
  // ids 1..n; pure-combinational components keep -1 (no region: nothing to
  // clock).
  Regions regions;
  regions.group_of_cell.assign(n_slots, -1);
  std::map<int, int> id_of_root;
  // First pass: find components that contain at least one sequential cell.
  std::unordered_set<int> seq_roots;
  module.forEachCell([&](CellId cid) {
    if (isSeq(cid) && isGrouped(cid)) {
      seq_roots.insert(uf.find(static_cast<int>(cid.value)));
    }
  });
  int next_id = 1;
  module.forEachCell([&](CellId cid) {
    const int root = uf.find(static_cast<int>(cid.value));
    if (isSeq(cid) && !isGrouped(cid)) {
      regions.group_of_cell[cid.index()] = 0;  // Group 0
      return;
    }
    if (seq_roots.count(root) == 0) return;  // region-less combinational
    auto [it, inserted] = id_of_root.emplace(root, next_id);
    if (inserted) ++next_id;
    regions.group_of_cell[cid.index()] = it->second;
  });
  regions.n_groups = next_id;

  regions.seq_cells.assign(static_cast<std::size_t>(regions.n_groups), {});
  regions.comb_cells.assign(static_cast<std::size_t>(regions.n_groups), {});
  module.forEachCell([&](CellId cid) {
    int g = regions.group_of_cell[cid.index()];
    if (g < 0) return;
    if (isSeq(cid)) {
      regions.seq_cells[static_cast<std::size_t>(g)].push_back(cid);
    } else {
      regions.comb_cells[static_cast<std::size_t>(g)].push_back(cid);
    }
  });
  return regions;
}

Regions groupRegionsBySeqPrefix(
    Module& module, const liberty::Gatefile& gatefile,
    const std::vector<std::vector<std::string>>& seq_prefix_groups,
    const GroupingOptions& options) {
  if (options.clean_logic) {
    netlist::CleaningRules rules;
    rules.is_buffer = [&](std::string_view t) {
      return gatefile.isBuffer(t);
    };
    rules.is_inverter = [&](std::string_view t) {
      return gatefile.isInverter(t);
    };
    netlist::cleanLogic(module, rules);
  }

  Regions regions;
  regions.n_groups = static_cast<int>(seq_prefix_groups.size()) + 1;
  regions.group_of_cell.assign(module.cellCapacity(), -1);
  regions.seq_cells.assign(static_cast<std::size_t>(regions.n_groups), {});
  regions.comb_cells.assign(static_cast<std::size_t>(regions.n_groups), {});

  const CellClasses classes(module, gatefile);
  auto isSeq = [&](CellId id) { return classes.seq(id); };

  // Sequential cells by prefix.
  module.forEachCell([&](CellId cid) {
    if (!isSeq(cid)) return;
    std::string name(module.cellName(cid));
    int group = 0;
    for (std::size_t g = 0; g < seq_prefix_groups.size() && group == 0; ++g) {
      for (const std::string& prefix : seq_prefix_groups[g]) {
        if (name.rfind(prefix, 0) == 0) {
          group = static_cast<int>(g) + 1;
          break;
        }
      }
    }
    regions.group_of_cell[cid.index()] = group;
    regions.seq_cells[static_cast<std::size_t>(group)].push_back(cid);
  });

  // Combinational cells: group of the sequential cells they reach.
  // Memoized DFS over the fanout toward sequential inputs.
  std::vector<int> reach(module.cellCapacity(), -2);  // -2 = unvisited
  std::function<int(CellId)> reachGroup = [&](CellId cid) -> int {
    int& memo = reach[cid.index()];
    if (memo != -2) return memo;
    memo = -1;  // cycle guard / default
    if (isSeq(cid)) {
      memo = regions.group_of_cell[cid.index()];
      return memo;
    }
    int found = -1;
    for (const netlist::PinConn& pin : module.pins(cid)) {
      if (pin.dir != netlist::PortDir::kOutput || !pin.net.valid()) continue;
      for (const netlist::TermRef& t : module.sinks(pin.net)) {
        if (!t.isCellPin()) continue;
        int g = reachGroup(t.cell());
        if (g < 0) continue;
        if (found >= 0 && g != found) {
          throw netlist::NetlistError(
              "manual grouping: cell " + std::string(module.cellName(cid)) +
              " drives sequentials of groups " + std::to_string(found) +
              " and " + std::to_string(g) +
              " — clouds are not independent");
        }
        found = g;
      }
    }
    memo = found;
    return memo;
  };
  module.forEachCell([&](CellId cid) {
    if (isSeq(cid)) return;
    int g = reachGroup(cid);
    regions.group_of_cell[cid.index()] = g;
    if (g >= 0) {
      regions.comb_cells[static_cast<std::size_t>(g)].push_back(cid);
    }
  });
  return regions;
}

DependencyGraph buildDependencyGraph(const Module& module,
                                     const liberty::Gatefile& gatefile,
                                     const Regions& regions) {
  DependencyGraph g;
  g.n_groups = regions.n_groups;
  std::vector<std::unordered_set<int>> pred_sets(
      static_cast<std::size_t>(regions.n_groups));

  const CellClasses classes(module, gatefile);
  auto isSeq = [&](CellId id) { return classes.seq(id); };

  module.forEachCell([&](CellId cid) {
    const int dst_group = regions.group_of_cell[cid.index()];
    if (dst_group < 0) return;
    for (const netlist::PinConn& pin : module.pins(cid)) {
      if (pin.dir != netlist::PortDir::kInput || !pin.net.valid()) continue;
      const netlist::Net& net = module.net(pin.net);
      if (net.false_path) continue;
      if (!net.driver.isCellPin()) continue;
      CellId src = net.driver.cell();
      if (!isSeq(src)) continue;  // only sequential outputs launch data
      const int src_group = regions.group_of_cell[src.index()];
      if (src_group < 0) continue;
      pred_sets[static_cast<std::size_t>(dst_group)].insert(src_group);
    }
  });

  g.preds.resize(static_cast<std::size_t>(g.n_groups));
  g.succs.resize(static_cast<std::size_t>(g.n_groups));
  for (int j = 0; j < g.n_groups; ++j) {
    auto& set = pred_sets[static_cast<std::size_t>(j)];
    g.preds[static_cast<std::size_t>(j)].assign(set.begin(), set.end());
    std::sort(g.preds[static_cast<std::size_t>(j)].begin(),
              g.preds[static_cast<std::size_t>(j)].end());
    for (int i : g.preds[static_cast<std::size_t>(j)]) {
      g.succs[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  for (auto& s : g.succs) std::sort(s.begin(), s.end());
  return g;
}

}  // namespace desync::core
