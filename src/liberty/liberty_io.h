// Liberty (.lib) text reader and writer.
//
// The reader handles the structural subset drdesync's gatefile extraction
// needs: library / cell / pin / ff / latch / timing groups, simple
// attributes, quoted strings and the linear delay model attributes
// (intrinsic_rise/fall, rise/fall_resistance).  Unknown groups and
// attributes are skipped, so real-world .lib files parse (their NLDM tables
// are ignored).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "liberty/library.h"

namespace desync::liberty {

class LibertyParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses Liberty text into a Library.
Library readLiberty(std::string_view text);

/// Reads a .lib file from disk.
Library readLibertyFile(const std::string& path);

/// The library a `--lib` spec names: builtin:hs or builtin:ll (stdlib90's
/// high-speed or low-leakage variant), or else a .lib file path.
Library loadLibrary(const std::string& spec);

/// Serializes a Library back to Liberty text (round-trips through
/// readLiberty).
std::string writeLiberty(const Library& lib);

/// Writes the library to a file.
void writeLibertyFile(const Library& lib, const std::string& path);

}  // namespace desync::liberty
