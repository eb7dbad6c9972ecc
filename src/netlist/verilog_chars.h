// Character classes of the structural Verilog subset, one table lookup per
// byte for the reader's lexer and the writer's escaping test.  The classes
// are the C-locale ones the grammar is defined over: bytes >= 0x80 belong
// to none of them.
#pragma once

#include <array>
#include <cstdint>

namespace desync::netlist::verilog_chars {

enum : std::uint8_t {
  kSpace = 1 << 0,       ///< ' ' \t \n \v \f \r
  kIdentStart = 1 << 1,  ///< A-Z a-z _
  kIdentCont = 1 << 2,   ///< A-Z a-z 0-9 _ $
  kDigit = 1 << 3,       ///< 0-9
  kAlnum = 1 << 4,       ///< A-Z a-z 0-9
  kPunct = 1 << 5,       ///< ( ) [ ] { } , ; : . = # *
};

inline constexpr std::array<std::uint8_t, 256> kTable = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] |= kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_') t[c] |= kIdentStart;
    if (alpha || digit || c == '_' || c == '$') t[c] |= kIdentCont;
    if (digit) t[c] |= kDigit;
    if (alpha || digit) t[c] |= kAlnum;
  }
  for (unsigned char c : {'(', ')', '[', ']', '{', '}', ',', ';', ':', '.',
                          '=', '#', '*'}) {
    t[c] |= kPunct;
  }
  return t;
}();

[[nodiscard]] constexpr bool is(char c, std::uint8_t cls) {
  return (kTable[static_cast<unsigned char>(c)] & cls) != 0;
}

}  // namespace desync::netlist::verilog_chars
