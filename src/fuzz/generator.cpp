#include "fuzz/generator.h"

#include <iterator>
#include <vector>

#include "designs/rtlgen.h"
#include "netlist/verilog.h"

namespace desync::fuzz {

using designs::Bus;
using designs::Rtl;
using netlist::NetId;
using util::Rng;

namespace {

/// Random bit picked from the register state buses.
NetId randomBit(Rng& rng, const std::vector<Bus>& pool) {
  const Bus& b = pool[rng.below(pool.size())];
  return b[rng.below(b.size())];
}

/// Random expression tree of at most `depth` levels over the state buses,
/// `width` bits wide.  `used_state` is set when at least one leaf reads a
/// register bus — callers re-mix a state bus in when a tree came out all
/// constant, so no register input cone is constant-only (a constant-fed
/// register would become an input register outside every region).
Bus randomExpr(Rtl& rtl, Rng& rng, const std::vector<Bus>& pool, int width,
               int depth, const GeneratorConfig& cfg, bool& used_state) {
  if (depth <= 0 || rng.chance(30)) {
    if (cfg.allow_constants && rng.chance(25)) {
      const std::uint64_t max =
          width >= 64 ? ~0ull : ((1ull << width) - 1ull);
      return rtl.constant(rng.below(max + 1ull), width);
    }
    used_state = true;
    return rtl.extend(pool[rng.below(pool.size())], width);
  }
  switch (rng.below(7)) {
    case 0:
      return rtl.add(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state),
                     randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state));
    case 1:
      return rtl.sub(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state),
                     randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state));
    case 2:
      return rtl.andB(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                 used_state),
                      randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                 used_state));
    case 3:
      return rtl.orB(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state),
                     randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state));
    case 4:
      return rtl.xorB(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                 used_state),
                      randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                 used_state));
    case 5:
      return rtl.inv(randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state));
    default: {
      used_state = true;
      NetId sel = randomBit(rng, pool);
      return rtl.mux(sel,
                     randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state),
                     randomExpr(rtl, rng, pool, width, depth - 1, cfg,
                                used_state));
    }
  }
}

/// Like randomExpr but guarantees at least one register-bus leaf.
Bus randomStateExpr(Rtl& rtl, Rng& rng, const std::vector<Bus>& pool,
                    int width, int depth, const GeneratorConfig& cfg) {
  bool used_state = false;
  Bus e = randomExpr(rtl, rng, pool, width, depth, cfg, used_state);
  if (!used_state) {
    e = rtl.xorB(e, rtl.extend(pool[rng.below(pool.size())], width));
  }
  return e;
}

}  // namespace

netlist::Module& generateDesign(netlist::Design& design,
                                const liberty::Gatefile& gatefile,
                                std::uint64_t seed,
                                const GeneratorConfig& config) {
  netlist::Module& m =
      design.addModule("fz_s" + std::to_string(seed));
  Rtl rtl(m, gatefile);
  // Scramble the seed through the output finalizer once so consecutive
  // seeds do not start from near-identical LCG states.
  Rng rng{Rng{seed}() ^ 0x66757a7aull};

  NetId clk = rtl.input("clk")[0];
  NetId rst_n = rtl.input("rst_n")[0];

  const int stages = rng.range(config.min_stages, config.max_stages);

  // Declare every stage's register-output bus up front so next-state
  // expressions can reference *any* stage: forward edges build pipelines,
  // backward and self edges build feedback loops.
  std::vector<Bus> state;
  std::vector<int> width(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    int w = rng.range(config.min_width, config.max_width);
    if (i == 0 && w < 2) w = 2;  // stage 0 is the activity source
    width[static_cast<std::size_t>(i)] = w;
    state.push_back(rtl.wire("s" + std::to_string(i), w));
  }

  // Stage 0 always toggles: a striding counter or an LFSR with a
  // stuck-at-zero escape.  Guarantees the capture logs carry real data.
  {
    const Bus& q = state[0];
    const int w = width[0];
    Bus next;
    if (rng.chance(60)) {
      next = rtl.add(q, rtl.constant(1 + rng.below(3), w));
    } else {
      NetId fb = rtl.xor2(q.back(), q[q.size() - 2]);
      fb = rtl.or2(fb, rtl.not1(rtl.reduceOr(q)));
      next = Rtl::cat(Bus{fb}, Rtl::slice(q, 0, w - 1));
    }
    rtl.regInto("r0", next, clk, rst_n, q);
  }

  // Remaining stages: random next-state function, optional load enable
  // (mux feedback) or an integrated clock gate driving the stage clock.
  for (int i = 1; i < stages; ++i) {
    const Bus& q = state[static_cast<std::size_t>(i)];
    const int w = width[static_cast<std::size_t>(i)];
    Bus next = randomStateExpr(rtl, rng, state, w, config.max_expr_depth,
                               config);
    NetId stage_clk = clk;
    if (config.allow_enables && rng.chance(30)) {
      next = rtl.mux(randomBit(rng, state), q, next);  // hold unless enabled
    } else if (config.allow_clock_gates && rng.chance(20)) {
      NetId gclk = m.addNet("gclk" + std::to_string(i));
      m.addCell("cg" + std::to_string(i), "CGL",
                {{"E", netlist::PortDir::kInput, randomBit(rng, state)},
                 {"CP", netlist::PortDir::kInput, clk},
                 {"Z", netlist::PortDir::kOutput, gclk}});
      stage_clk = gclk;
    }
    rtl.regInto("r" + std::to_string(i), next, stage_clk, rst_n, q);
  }

  // Primary outputs: the last stage, plus an optional combinational-only
  // cone over the whole state (reconvergent fanout into shared leaves).
  if (!rng.chance(config.zero_output_percent)) {
    rtl.output("q", state.back());
    if (config.allow_comb_outputs && rng.chance(60)) {
      const int w = rng.range(1, config.max_width);
      rtl.output("cout", randomStateExpr(rtl, rng, state, w,
                                         config.max_expr_depth, config));
    }
  }

  // Dangling logic: a driven net nobody reads (synthesis leftovers).
  if (config.allow_dangling && rng.chance(30)) {
    rtl.and2(randomBit(rng, state), randomBit(rng, state));
  }

  if (rng.chance(config.buffer_percent)) {
    rtl.bufferHighFanout();
  }
  return m;
}

std::string generateVerilog(const liberty::Gatefile& gatefile,
                            std::uint64_t seed,
                            const GeneratorConfig& config) {
  netlist::Design d;
  netlist::Module& m = generateDesign(d, gatefile, seed, config);
  return netlist::writeVerilog(m);
}

netlist::Module& buildRandomComb(netlist::Design& design,
                                 const liberty::Gatefile& gatefile, Rng& rng,
                                 const CombConfig& config,
                                 const std::string& name) {
  static const char* const kGates[] = {"IV",  "BF", "ND2", "NR2",   "AN2",
                                       "OR2", "EO", "EN",  "MUX21"};
  netlist::Module& m = design.addModule(name);
  std::vector<NetId> pool;
  for (int i = 0; i < config.n_inputs; ++i) {
    NetId n = m.addNet("in" + std::to_string(i));
    m.addPort("in" + std::to_string(i), netlist::PortDir::kInput, n);
    pool.push_back(n);
  }
  for (int g = 0; g < config.n_gates; ++g) {
    const std::string type = kGates[rng.below(std::size(kGates))];
    const liberty::LibCell& cell = gatefile.library().cell(type);
    std::vector<netlist::Module::PinInit> pins;
    for (const std::string& in : cell.inputPins()) {
      pins.push_back(
          {in, netlist::PortDir::kInput, pool[rng.below(pool.size())]});
    }
    NetId out = m.addNet("n" + std::to_string(g));
    pins.push_back({"Z", netlist::PortDir::kOutput, out});
    m.addCell("u" + std::to_string(g), type, pins);
    pool.push_back(out);
  }
  for (int i = 0; i < config.n_outputs; ++i) {
    m.addPort("out" + std::to_string(i), netlist::PortDir::kOutput,
              pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
  }
  return m;
}

}  // namespace desync::fuzz
