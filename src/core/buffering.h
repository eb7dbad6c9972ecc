// Backend re-buffering (thesis §4.7: placement inserts low-skew buffer
// trees; §3.2.2: cleaning removed the synthesis buffers and the backend's
// in-place-optimization restores them).
//
// Builds balanced BF trees on every high-fanout net — most importantly the
// latch-enable nets driven by the controllers, which fan out to every latch
// of a region (the Fig 4.3 "low-skew buffer trees").
#pragma once

#include <string_view>

#include "netlist/netlist.h"

namespace desync::core {

/// Fanout bound: a net with more sinks gets a buffer tree.
inline constexpr int kBufferMaxFanout = 12;
/// Buffer cell type (single input A, output Z).
inline constexpr std::string_view kBufferCell = "BF";

/// Inserts buffer trees; returns the number of buffers added.  Nets driven
/// by input ports are treated as ideal (external drivers) and skipped.
std::size_t insertBufferTrees(netlist::Module& module);

}  // namespace desync::core
