#include "pnr/pnr.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <unordered_map>

namespace desync::pnr {

using netlist::CellId;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

AreaStats areaStats(const liberty::BoundModule& bound) {
  AreaStats stats;
  const Module& module = bound.module();
  stats.nets = module.numNets();
  module.forEachCell([&](CellId cid) {
    const liberty::BoundType* t = bound.typeOf(cid);
    if (t == nullptr) return;
    ++stats.cells;
    stats.cell_area += t->area;
    if (t->kind == liberty::CellKind::kCombinational) {
      stats.comb_area += t->area;
    } else {
      stats.seq_area += t->area;
    }
  });
  return stats;
}

AreaStats areaStats(const Module& module, const liberty::Gatefile& gatefile) {
  return areaStats(liberty::BoundModule(module, gatefile));
}

namespace {

/// Clock-tree synthesis: balanced buffer trees under each clock-like port.
std::size_t runCts(Module& module, const PnrOptions& options) {
  std::size_t added = 0;
  for (const std::string& port_name : options.clock_ports) {
    netlist::PortId pid = module.findPort(port_name);
    if (!pid.valid()) continue;
    NetId root = module.port(pid).net;
    if (!root.valid()) continue;
    // Layered chunking until every net in the tree is under the fanout cap.
    std::deque<NetId> work{root};
    while (!work.empty()) {
      NetId net = work.front();
      work.pop_front();
      const std::span<const netlist::TermRef> live = module.sinks(net);
      if (static_cast<int>(live.size()) <= options.cts_max_fanout) continue;
      const std::vector<netlist::TermRef> sinks(live.begin(), live.end());
      const std::size_t chunk =
          static_cast<std::size_t>(options.cts_max_fanout);
      for (std::size_t start = 0; start < sinks.size(); start += chunk) {
        std::string base =
            std::string(module.design().names().str(
                module.design().names().makeUnique(port_name + "_cts")));
        NetId out = module.addNet(base);
        module.addCell(base + "_b", "BF",
                       {{"A", PortDir::kInput, net},
                        {"Z", PortDir::kOutput, out}});
        ++added;
        const std::size_t end = std::min(start + chunk, sinks.size());
        for (std::size_t i = start; i < end; ++i) {
          if (sinks[i].isCellPin()) {
            module.connectPin(sinks[i].cell(), sinks[i].pin, out);
          }
        }
        work.push_back(out);
      }
      work.push_back(net);  // re-check: the buffers are new sinks
    }
  }
  return added;
}

}  // namespace

PnrResult placeAndRoute(Module& module, const liberty::Gatefile& gatefile,
                        const PnrOptions& options) {
  PnrResult result;

  // Post-synthesis accounting.
  AreaStats pre = areaStats(module, gatefile);
  result.cells_pre = pre.cells;
  result.nets_pre = pre.nets;
  result.cell_area_pre = pre.cell_area;
  result.comb_area_pre = pre.comb_area;
  result.seq_area_pre = pre.seq_area;

  // CTS.
  result.cts_buffers = runCts(module, options);

  // CTS mutated the netlist, so bind (again) now; the binding feeds the
  // post accounting and every per-cell area query in placement below.
  const liberty::BoundModule bound(module, gatefile);
  AreaStats post = areaStats(bound);
  result.cells_post = post.cells;
  result.nets_post = post.nets;
  result.std_cell_area = post.cell_area;

  // --- placement: recursive min-cut bisection into rectangles -----------
  // The cell set is split in two by greedy connectivity-gain growth (cells
  // most connected to the growing half join first) while the region
  // rectangle splits along its longer side, so tightly connected logic
  // lands in compact 2D blocks.
  std::vector<CellId> order;  // kept for deterministic iteration order
  std::unordered_map<std::uint32_t, Placement> placed;
  double core_side = 0;
  {
    // Cell adjacency over small nets (global nets carry no locality).
    constexpr std::size_t kMaxOrderingFanout = 20;
    std::vector<std::vector<std::uint32_t>> adj(module.cellCapacity());
    module.forEachNet([&](NetId nid) {
      const netlist::Net& n = module.net(nid);
      if (module.sinks(nid).size() > kMaxOrderingFanout) return;
      std::vector<std::uint32_t> terms;
      if (n.driver.isCellPin()) terms.push_back(n.driver.cell().value);
      for (const netlist::TermRef& t : module.sinks(nid)) {
        if (t.isCellPin()) terms.push_back(t.cell().value);
      }
      for (std::size_t i = 0; i < terms.size(); ++i) {
        for (std::size_t j = i + 1; j < terms.size(); ++j) {
          adj[terms[i]].push_back(terms[j]);
          adj[terms[j]].push_back(terms[i]);
        }
      }
    });

    std::vector<std::uint32_t> all;
    module.forEachCell([&](CellId id) { all.push_back(id.value); });

    // gain[] and in_part[] reused across levels (reset lazily via epoch).
    std::vector<int> gain(module.cellCapacity(), 0);
    std::vector<std::uint32_t> epoch(module.cellCapacity(), 0);
    std::vector<std::uint8_t> state(module.cellCapacity(), 0);
    std::uint32_t cur_epoch = 0;

    const double row_h = options.row_height_um;
    core_side = std::sqrt(post.cell_area / options.target_utilization);

    struct Rect {
      double x0, y0, x1, y1;
    };
    std::function<void(std::vector<std::uint32_t>&, Rect)> bisect =
        [&](std::vector<std::uint32_t>& cells, Rect r) {
          if (cells.size() <= 16) {
            // Row fill inside the rectangle.
            double x = r.x0;
            double y = std::floor(r.y0 / row_h) * row_h;
            for (std::uint32_t cv : cells) {
              CellId id{cv};
              order.push_back(id);
              const liberty::BoundType* bt = bound.typeOf(id);
              const double w = bt == nullptr ? 1.0 : bt->area / row_h;
              if (x + w > r.x1 + 1e-9) {
                x = r.x0;
                y += row_h;
              }
              placed.emplace(cv, Placement{id, x, y});
              x += w / options.target_utilization;
            }
            return;
          }
          ++cur_epoch;
          // state: 0 = free, 1 = in A, 2 = frontier-queued.
          auto fresh = [&](std::uint32_t c) {
            if (epoch[c] != cur_epoch) {
              epoch[c] = cur_epoch;
              gain[c] = 0;
              state[c] = 0;
            }
          };
          for (std::uint32_t c : cells) fresh(c);
          // Mark membership of this partition via state==0/1/2; cells not
          // in `cells` keep a stale epoch and are ignored.
          const std::size_t half = cells.size() / 2;
          std::vector<std::uint32_t> a, b;
          // Max-gain greedy growth from the first cell.
          // Simple binary-heap of (gain, cell); stale entries skipped.
          std::vector<std::pair<int, std::uint32_t>> heap;
          auto heap_push = [&](std::uint32_t c) {
            heap.emplace_back(gain[c], c);
            std::push_heap(heap.begin(), heap.end());
          };
          state[cells[0]] = 2;
          heap_push(cells[0]);
          while (a.size() < half && !heap.empty()) {
            std::pop_heap(heap.begin(), heap.end());
            auto [g, c] = heap.back();
            heap.pop_back();
            if (state[c] == 1 || g != gain[c]) continue;  // stale
            state[c] = 1;
            a.push_back(c);
            for (std::uint32_t o : adj[c]) {
              if (epoch[o] != cur_epoch || state[o] == 1) continue;
              ++gain[o];
              state[o] = 2;
              heap_push(o);
            }
          }
          // Any shortfall (disconnected partition): fill from the rest.
          for (std::uint32_t c : cells) {
            if (state[c] == 1) continue;
            if (a.size() < half) {
              state[c] = 1;
              a.push_back(c);
            } else {
              b.push_back(c);
            }
          }
          // Split the rectangle across its longer side, area-proportional.
          const double frac =
              static_cast<double>(a.size()) / static_cast<double>(cells.size());
          Rect ra = r, rb = r;
          if (r.x1 - r.x0 >= r.y1 - r.y0) {
            const double cut = r.x0 + (r.x1 - r.x0) * frac;
            ra.x1 = cut;
            rb.x0 = cut;
          } else {
            const double cut = r.y0 + (r.y1 - r.y0) * frac;
            ra.y1 = cut;
            rb.y0 = cut;
          }
          bisect(a, ra);
          bisect(b, rb);
        };
    bisect(all, Rect{0, 0, core_side, core_side});
  }

  // Legalization ("tetris"): snap each cell to its nearest row and pack
  // left to right in desired-x order, removing any overlap the recursive
  // rectangles introduced at their seams.
  {
    const double row_h = options.row_height_um;
    std::map<int, std::vector<std::uint32_t>> rows;
    for (auto& [cv, p] : placed) {
      int row = std::max(0, static_cast<int>(std::lround(p.y / row_h)));
      rows[row].push_back(cv);
    }
    for (auto& [row, cells] : rows) {
      std::sort(cells.begin(), cells.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const Placement& pa = placed.at(a);
                  const Placement& pb = placed.at(b);
                  if (pa.x != pb.x) return pa.x < pb.x;
                  return a < b;
                });
      // Dense pack preserving order, then spread by the whitespace factor
      // so the row occupies its share of the core width.
      double x = 0;
      for (std::uint32_t cv : cells) {
        Placement& p = placed.at(cv);
        const liberty::BoundType* bt = bound.typeOf(CellId{cv});
        const double w = bt == nullptr ? 1.0 : bt->area / row_h;
        p.x = x / options.target_utilization;
        p.y = row * row_h;
        x += w;
      }
    }
  }

  // Collect the placement in deterministic order.
  result.placement.reserve(order.size());
  for (CellId id : order) {
    result.placement.push_back(placed.at(id.value));
  }

  // HPWL over the placement.
  double hpwl = 0;
  module.forEachNet([&](NetId nid) {
    const netlist::Net& n = module.net(nid);
    double min_x = 1e18, max_x = -1e18, min_y = 1e18, max_y = -1e18;
    int terms = 0;
    auto visit = [&](const netlist::TermRef& t) {
      if (!t.isCellPin()) return;
      auto it = placed.find(t.cell().value);
      if (it == placed.end()) return;
      min_x = std::min(min_x, it->second.x);
      max_x = std::max(max_x, it->second.x);
      min_y = std::min(min_y, it->second.y);
      max_y = std::max(max_y, it->second.y);
      ++terms;
    };
    visit(n.driver);
    for (const netlist::TermRef& t : module.sinks(nid)) visit(t);
    if (terms >= 2) hpwl += (max_x - min_x) + (max_y - min_y);
  });
  result.total_hpwl_um = hpwl;

  // Core sizing: placement density target vs routing demand — whichever
  // needs more area sets the core, which is where the utilization figures
  // of Tables 5.1/5.2 come from (denser control wiring lowers
  // utilization).
  const double area_for_cells = post.cell_area / options.target_utilization;
  const double area_for_routing =
      hpwl * options.routing_detour / options.routing_supply;
  result.core_size = std::max(area_for_cells, area_for_routing);
  result.utilization = post.cell_area / result.core_size;
  return result;
}

}  // namespace desync::pnr
