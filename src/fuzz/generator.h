// Seeded random synchronous-design generation for differential fuzzing.
//
// Two generators, both fully deterministic in the seed:
//
//  * generateDesign / generateVerilog — random *sequential* designs layered
//    on the structural synthesis kit (designs/rtlgen): pipelines of
//    registered stages with cross-stage and self feedback loops, load
//    enables (mux feedback and integrated clock gates), multi-bit buses,
//    combinational-only output cones, constant operands, dangling nets and
//    reconvergent fanout.  The produced modules are the adversarial inputs
//    the differential oracle (fuzz/oracle.h) pushes through the complete
//    seven-pass desynchronization flow.
//
//  * buildRandomComb — random mapped *combinational* circuits, the workload
//    of the Verilog round-trip and cleaning property tests
//    (tests/netlist_fuzz_test.cpp).
//
// Every generated design keeps the flow's input contract: a single clock
// port "clk", an active-low asynchronous reset "rst_n", every register
// reachable from other registers (so no implicit group-0 input registers)
// and no combinational cycles (every feedback loop passes a register).
#pragma once

#include <cstdint>
#include <string>

#include "liberty/gatefile.h"
#include "netlist/netlist.h"
#include "util/rng.h"

namespace desync::fuzz {

/// Knobs of the sequential-design generator.  The defaults describe the
/// standard fuzzing population; tests narrow them to force a shape (e.g.
/// min_stages = 2 to guarantee multi-region pipelines).
struct GeneratorConfig {
  int min_stages = 1;  ///< registered pipeline stages (>= 1)
  int max_stages = 4;
  int min_width = 1;   ///< register bus width per stage
  int max_width = 6;
  int max_expr_depth = 3;   ///< random next-state expression tree depth
  bool allow_enables = true;      ///< mux-feedback load enables
  bool allow_clock_gates = true;  ///< CGL-gated register stages (Fig 3.1d)
  bool allow_constants = true;    ///< constant expression operands
  bool allow_dangling = true;     ///< driven nets without any sink
  bool allow_comb_outputs = true; ///< combinational-only output cone
  /// Percent chance the module has no primary outputs at all (internal
  /// state still checked through the capture logs).
  int zero_output_percent = 5;
  /// Percent chance of a post-build high-fanout buffering pass (gives the
  /// flow's cleaning stage realistic work).
  int buffer_percent = 40;
};

/// Generates the design for `seed` into `design` and returns the module
/// (named "fz_s<seed>").  Identical seed + config => identical netlist.
netlist::Module& generateDesign(netlist::Design& design,
                                const liberty::Gatefile& gatefile,
                                std::uint64_t seed,
                                const GeneratorConfig& config = {});

/// Same design as structural Verilog text — the canonical exchange format
/// of the fuzzing pipeline: the oracle consumes text, the shrinker reduces
/// text, corpus reproducers are text files.
std::string generateVerilog(const liberty::Gatefile& gatefile,
                            std::uint64_t seed,
                            const GeneratorConfig& config = {});

/// Knobs of the combinational property-test generator.
struct CombConfig {
  int n_inputs = 5;
  int n_gates = 60;
  int n_outputs = 4;
};

/// Builds a random combinational circuit (buffers and inverters included so
/// the cleaning pass has work) as module `name`.  Gate types are drawn with
/// util::Rng::below, so the selection is free of modulo bias.
netlist::Module& buildRandomComb(netlist::Design& design,
                                 const liberty::Gatefile& gatefile,
                                 util::Rng& rng, const CombConfig& config = {},
                                 const std::string& name = "fuzz");

}  // namespace desync::fuzz
