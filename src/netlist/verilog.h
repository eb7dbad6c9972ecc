// Structural (gate-level) Verilog reader and writer.
//
// The reader accepts the post-synthesis netlist subset the drdesync tool
// consumed (thesis §3.2.1): module/endmodule, ANSI and non-ANSI port styles,
// input/output/inout/wire declarations with ranges, escaped identifiers,
// sized binary/hex constants, simple and concatenated expressions in port
// connections, and `assign` aliases between nets/constants.  Multi-module
// files are supported; instances of modules defined in the same file resolve
// their pin directions from the module definition, everything else from the
// supplied CellTypeProvider.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/cell_type_provider.h"
#include "netlist/netlist.h"

namespace desync::netlist {

/// Error raised on malformed Verilog input, with line information.
class VerilogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct VerilogReadOptions {
  /// Replace escaped identifiers (\foo[2] ) with synthesized simple names,
  /// mirroring drdesync's design-import cleanup (thesis §3.2.1).
  bool simplify_escaped_names = true;
};

/// Work counters of one read; the same for the same text on any machine.
struct VerilogReadStats {
  /// NameTable lookups (interns and finds) the reader made: one per
  /// distinct name it met, one per instance name, a few per cell type.
  std::size_t name_probes = 0;
  /// Lookups in the reader's own name-to-symbol table: one per net
  /// reference, declared name and instance type.
  std::size_t symbol_probes = 0;
};

/// Parses Verilog source into `design`.  New modules are added to the design;
/// the last module parsed becomes top unless a module named `top_hint` exists.
/// A NetlistError the database raises while a statement is built (a
/// duplicate name, a second driver) is reported as a VerilogError with that
/// statement's line.
VerilogReadStats readVerilog(Design& design, std::string_view source,
                             const CellTypeProvider& types,
                             const VerilogReadOptions& options = {},
                             std::string_view top_hint = {});

/// Reads a Verilog file from disk.  Throws VerilogError / std::runtime_error.
void readVerilogFile(Design& design, const std::string& path,
                     const CellTypeProvider& types,
                     const VerilogReadOptions& options = {},
                     std::string_view top_hint = {});

/// Serializes one module as structural Verilog.  Buses are re-assembled into
/// ranged declarations when their bits form a contiguous range.
std::string writeVerilog(const Module& module);

/// Serializes every module of the design (top last, as is conventional).
std::string writeVerilog(const Design& design);

/// Writes the design to a file.
void writeVerilogFile(const Design& design, const std::string& path);

}  // namespace desync::netlist
