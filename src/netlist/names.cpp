#include "netlist/names.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "util/hash.h"

namespace desync::netlist {

namespace {

// Arena blocks double from 4 KiB to 64 KiB (four doublings), so a small
// design's table stays small.
constexpr std::size_t kFirstBlockBytes = 4 * 1024;
constexpr std::size_t kBlockDoublings = 4;
constexpr std::size_t kMinSlots = 16;

std::uint32_t hashName(std::string_view s) {
  util::Fnv64 h;
  h.update(s);
  return static_cast<std::uint32_t>(util::splitmix64(h.digest()));
}

}  // namespace

// ------------------------------------------------------------- NameTable

std::size_t NameTable::probe(std::string_view s, std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) return i;
    if (slot.hash == hash && strings_[slot.id] == s) return i;
  }
}

NameId NameTable::intern(std::string_view s) {
  if (2 * (strings_.size() + 1) > slots_.size()) {
    rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
  const std::uint32_t hash = hashName(s);
  Slot& slot = slots_[probe(s, hash)];
  if (slot.id == kEmpty) {
    slot = Slot{hash, static_cast<std::uint32_t>(strings_.size())};
    strings_.push_back(store(s));
  }
  return NameId{slot.id};
}

NameId NameTable::find(std::string_view s) const {
  if (slots_.empty()) return NameId{};
  const Slot& slot = slots_[probe(s, hashName(s))];
  return slot.id == kEmpty ? NameId{} : NameId{slot.id};
}

std::string_view NameTable::str(NameId id) const {
  assert(id.valid() && id.index() < strings_.size());
  return strings_[id.index()];
}

NameId NameTable::makeUnique(std::string_view base) {
  if (!find(base).valid()) {
    return intern(base);
  }
  for (int suffix = 1;; ++suffix) {
    std::string candidate = std::string(base) + "_" + std::to_string(suffix);
    if (!find(candidate).valid()) {
      return intern(candidate);
    }
  }
}

std::string_view NameTable::store(std::string_view s) {
  // One byte more for the NUL terminator callers of str().data() expect.
  // A moved-from table has no blocks, whatever cursor_ still says.
  if (blocks_.empty() || s.size() + 1 > left_) {
    const std::size_t block =
        kFirstBlockBytes << std::min(blocks_.size(), kBlockDoublings);
    const std::size_t bytes = std::max(block, s.size() + 1);
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    cursor_ = blocks_.back().get();
    left_ = bytes;
  }
  char* at = cursor_;
  if (!s.empty()) std::memcpy(at, s.data(), s.size());
  at[s.size()] = '\0';
  cursor_ += s.size() + 1;
  left_ -= s.size() + 1;
  return {at, s.size()};
}

void NameTable::reserve(std::size_t n) {
  std::size_t slots = kMinSlots;
  while (slots < 2 * (n + 1)) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
  strings_.reserve(n);
}

void NameTable::rehash(std::size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{0, kEmpty});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

// ------------------------------------------------------------- NameIndex

std::size_t NameIndex::home(std::uint32_t key) const {
  return static_cast<std::size_t>(util::splitmix64(key)) & (slots_.size() - 1);
}

std::size_t NameIndex::slotOf(std::uint32_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].key != kNone && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

std::uint32_t NameIndex::find(NameId key) const {
  if (slots_.empty()) return kNone;
  const Slot& slot = slots_[slotOf(key.value)];
  return slot.key == kNone ? kNone : slot.value;
}

bool NameIndex::insert(NameId key, std::uint32_t value) {
  assert(key.valid());
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
  Slot& slot = slots_[slotOf(key.value)];
  if (slot.key != kNone) return false;
  slot = Slot{key.value, value};
  ++size_;
  return true;
}

void NameIndex::erase(NameId key) {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slotOf(key.value);
  if (slots_[hole].key == kNone) return;
  --size_;
  // Backward shift: pull each later entry of the run into the hole unless
  // that would move it before its home slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].key != kNone;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].key = kNone;
}

void NameIndex::clear() {
  slots_.clear();
  size_ = 0;
}

void NameIndex::reserve(std::size_t n) {
  std::size_t slots = kMinSlots;
  while (slots < 2 * (n + 1)) slots *= 2;
  if (slots > slots_.size()) rehash(slots);
}

void NameIndex::rehash(std::size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{kNone, 0});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == kNone) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].key != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace desync::netlist
