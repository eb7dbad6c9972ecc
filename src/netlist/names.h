// String interning for netlist object names.
//
// A NameTable maps strings to dense NameIds and back.  Every Module in a
// Design shares one table so that name comparisons across modules are integer
// comparisons.  NameIndex is the flat NameId -> u32 table the by-name lookups
// (nets, cells, ports, modules, buses) are built on.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "netlist/ids.h"

namespace desync::netlist {

/// Bidirectional string <-> NameId interner.  Strings are never removed;
/// NameIds stay valid for the table's lifetime.
///
/// The bytes live in a chunked arena: fixed blocks that are never
/// reallocated, so every view str() returns stays valid (and
/// NUL-terminated) for the table's lifetime, moves included.  The index is
/// an open-addressing table of ids with cached hashes; a lookup touches the
/// string bytes only on a hash match, and teardown frees a few blocks.
class NameTable {
 public:
  /// Interns `s`, returning the existing id when already present.
  NameId intern(std::string_view s);

  /// Looks up an existing name; returns an invalid NameId if absent.
  [[nodiscard]] NameId find(std::string_view s) const;

  /// Returns the string for an interned id.  Precondition: id is valid and
  /// was produced by this table.
  [[nodiscard]] std::string_view str(NameId id) const;

  [[nodiscard]] std::size_t size() const { return strings_.size(); }

  /// Sizes the index for `n` names in all, so interning up to that many
  /// never rehashes.
  void reserve(std::size_t n);

  /// Produces a name not yet present in the table by appending a numeric
  /// suffix to `base` if needed, and interns it.
  NameId makeUnique(std::string_view base);

 private:
  struct Slot {
    std::uint32_t hash;
    std::uint32_t id;  // kEmpty marks a free slot
  };
  static constexpr std::uint32_t kEmpty = NameId::kInvalidValue;

  /// Index of the slot holding `s`, or of the free slot where it belongs.
  [[nodiscard]] std::size_t probe(std::string_view s, std::uint32_t hash) const;
  std::string_view store(std::string_view s);
  void rehash(std::size_t slots);

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;  // free bytes of the newest block
  std::size_t left_ = 0;
  std::vector<std::string_view> strings_;  // by id, into blocks_
  std::vector<Slot> slots_;                // power-of-two size, <= 1/2 full
};

/// Flat open-addressing map from NameId to a u32 (a slot index, usually).
/// Linear probing with backward-shift erase, so it has no tombstones.
class NameIndex {
 public:
  static constexpr std::uint32_t kNone = NameId::kInvalidValue;

  /// The value stored for `key`, or kNone.
  [[nodiscard]] std::uint32_t find(NameId key) const;
  /// Adds key -> value; returns false and changes nothing when `key` is
  /// already present.
  bool insert(NameId key, std::uint32_t value);
  void erase(NameId key);
  void clear();
  /// Sizes the map for `n` keys in all, so inserting up to that many
  /// never grows it.
  void reserve(std::size_t n);

 private:
  struct Slot {
    std::uint32_t key;  // kNone marks a free slot
    std::uint32_t value;
  };

  [[nodiscard]] std::size_t home(std::uint32_t key) const;
  [[nodiscard]] std::size_t slotOf(std::uint32_t key) const;
  void rehash(std::size_t slots);

  std::vector<Slot> slots_;  // power-of-two size, <= 1/2 full
  std::size_t size_ = 0;
};

}  // namespace desync::netlist
