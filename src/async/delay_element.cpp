#include "async/delay_element.h"

#include <cmath>
#include <vector>

#include "async/cell_builder.h"

namespace desync::async {

using netlist::Design;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

std::string delayElementName(const DelayElementSpec& spec) {
  std::string name = "DR_DEL_";
  name += spec.asymmetric ? "A" : "S";
  name += std::to_string(spec.levels);
  if (spec.mux_taps > 0) name += "_M" + std::to_string(spec.mux_taps);
  return name;
}

Module& ensureDelayElement(Design& design, const liberty::Gatefile& gatefile,
                           const DelayElementSpec& spec) {
  (void)gatefile;
  if (spec.levels < 1 || spec.levels > 200) {
    throw netlist::NetlistError("delay element levels out of range (1..200)");
  }
  if (spec.mux_taps != 0 && spec.mux_taps != 2 && spec.mux_taps != 4 &&
      spec.mux_taps != 8) {
    throw netlist::NetlistError("mux_taps must be 0, 2, 4 or 8");
  }
  std::string name = delayElementName(spec);
  if (Module* existing = design.findModule(name)) return *existing;

  Module& m = design.addModule(name);
  // The chain, then a MUX21 tree of taps - 1 cells and log2(taps) selects.
  const int muxes = spec.mux_taps > 0 ? spec.mux_taps - 1 : 0;
  const int selects = spec.mux_taps == 8 ? 3 : spec.mux_taps == 4 ? 2 : 1;
  m.reserve(static_cast<std::size_t>(spec.levels + muxes),
            static_cast<std::size_t>(spec.levels + 1 + muxes + selects),
            static_cast<std::size_t>(3 * spec.levels + 4 * muxes),
            static_cast<std::size_t>(2 + selects));
  CellBuilder b(m);
  NetId in = b.net("A");
  b.port("A", PortDir::kInput, in);

  // The chain.  Stage i output: asymmetric -> AN2(in, prev); symmetric ->
  // BF(prev).
  std::vector<NetId> stages;
  NetId prev = in;
  for (int i = 0; i < spec.levels; ++i) {
    NetId out = b.net("d" + std::to_string(i));
    if (spec.asymmetric) {
      b.cell("u" + std::to_string(i), "AN2",
             {{"A", PortDir::kInput, in},
              {"B", PortDir::kInput, prev},
              {"Z", PortDir::kOutput, out}});
    } else {
      b.cell("u" + std::to_string(i), "BF",
             {{"A", PortDir::kInput, prev}, {"Z", PortDir::kOutput, out}});
    }
    stages.push_back(out);
    prev = out;
  }

  if (spec.mux_taps == 0) {
    b.port("Z", PortDir::kOutput, stages.back());
    return m;
  }

  // Tap selection: tap k passes round(levels*(k+1)/taps) stages.
  std::vector<NetId> taps;
  for (int k = 0; k < spec.mux_taps; ++k) {
    int idx = static_cast<int>(std::lround(
                  static_cast<double>(spec.levels) * (k + 1) / spec.mux_taps)) -
              1;
    if (idx < 0) idx = 0;
    if (idx >= spec.levels) idx = spec.levels - 1;
    taps.push_back(stages[static_cast<std::size_t>(idx)]);
  }

  // Select ports S0 (LSB) .. S(n-1).
  std::vector<NetId> sel;
  for (int s = 0; s < selects; ++s) {
    const std::string pin = "S" + std::to_string(s);
    NetId n = b.net(pin);
    b.port(pin, PortDir::kInput, n);
    sel.push_back(n);
  }

  // MUX21 tree, level s selects by bit s.
  std::vector<NetId> level = taps;
  for (int s = 0; s < selects; ++s) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const std::string suffix =
          std::to_string(s) + "_" + std::to_string(i / 2);
      NetId out = b.net("m" + suffix);
      b.cell("mx" + suffix, "MUX21",
             {{"A", PortDir::kInput, level[i]},
              {"B", PortDir::kInput, level[i + 1]},
              {"S", PortDir::kInput, sel[static_cast<std::size_t>(s)]},
              {"Z", PortDir::kOutput, out}});
      next.push_back(out);
    }
    level = std::move(next);
  }

  b.port("Z", PortDir::kOutput, level[0]);
  return m;
}

}  // namespace desync::async
