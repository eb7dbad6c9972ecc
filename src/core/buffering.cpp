#include "core/buffering.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace desync::core {

using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

std::size_t insertBufferTrees(Module& module,
                              const liberty::Gatefile& gatefile,
                              const BufferingOptions& options) {
  (void)gatefile;
  std::size_t added = 0;
  netlist::NameTable& names = module.design().names();
  // Per-base counters keep name uniquification O(1): makeUnique() would
  // probe "_1", "_2", ... for every buffer sharing a base name, which is
  // quadratic on the enable nets (hundreds of buffers per base).
  std::unordered_map<std::string, std::uint64_t> serial;
  const auto unique = [&](const std::string& base) {
    std::uint64_t& next = serial[base];
    std::string cand = base + std::to_string(next++);
    while (names.find(cand).valid()) {
      cand = base + std::to_string(next++);
    }
    return cand;
  };
  // Worklist of nets that may exceed the fanout bound.  Chunking a net
  // leaves it with one sink per chunk, which can still exceed the bound on
  // very wide nets, so the net re-enters the list until it fits; the new
  // "_bt" nets are created at or below the bound and never enter.
  std::vector<NetId> work;
  work.reserve(module.numNets());
  module.forEachNet([&](NetId id) { work.push_back(id); });
  for (std::size_t w = 0; w < work.size(); ++w) {
    const NetId id = work[w];
    {
      const netlist::Net& n = module.net(id);
      if (n.driver.isPort() || n.driver.kind == netlist::TermKind::kNone ||
          n.driver.isConst()) {
        continue;
      }
      if (static_cast<int>(module.sinks(id).size()) <= options.max_fanout) {
        continue;
      }
    }
    const std::size_t n_sinks = module.sinks(id).size();
    const std::size_t chunk = static_cast<std::size_t>(options.max_fanout);
    const std::string base = std::string(module.netName(id));
    // Assign sink index ranges to the new buffer outputs, then rewire in
    // one redistributeSinks pass: connectPin per sink re-scans the
    // over-fanout net's sinks on every disconnect — quadratic.  The new
    // buffers' own A pins land past `assign` and stay on the net.
    std::vector<NetId> assign(n_sinks);
    for (std::size_t start = 0; start < n_sinks; start += chunk) {
      NetId out = module.addNet(unique(base + "_bt"));
      module.addCell(unique(base + "_btb"), options.buffer_cell,
                     {{"A", PortDir::kInput, id}, {"Z", PortDir::kOutput, out}});
      ++added;
      const std::size_t end = std::min(start + chunk, n_sinks);
      for (std::size_t i = start; i < end; ++i) assign[i] = out;
    }
    module.redistributeSinks(id, assign);
    work.push_back(id);
  }
  return added;
}

}  // namespace desync::core
