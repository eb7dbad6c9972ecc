#include "liberty/library.h"

#include <atomic>

#include "util/hash.h"

namespace desync::liberty {

namespace detail {
namespace {
std::atomic<std::uint64_t> pin_lookups{0};
}  // namespace
void bumpPinLookup() {
  pin_lookups.fetch_add(1, std::memory_order_relaxed);
}
std::uint64_t pinLookupCount() {
  return pin_lookups.load(std::memory_order_relaxed);
}
}  // namespace detail

void Library::bumpLookup() const {
  std::atomic_ref<std::uint64_t>(lookups_).fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t Library::lookupCount() const {
  return std::atomic_ref<std::uint64_t>(lookups_).load(
      std::memory_order_relaxed);
}

LibCell& Library::addCell(LibCell cell) {
  auto [it, inserted] = cells_.emplace(cell.name, std::move(cell));
  if (!inserted) {
    throw LibraryError("duplicate cell: " + it->first);
  }
  order_.push_back(it->first);
  return it->second;
}

const LibCell* Library::findCell(std::string_view name) const {
  bumpLookup();
  auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

LibCell* Library::findCell(std::string_view name) {
  bumpLookup();
  auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

std::uint64_t Library::contentHash() const {
  util::Fnv64 hasher;
  hasher.str(name);
  hasher.f64(default_wire_cap);
  hasher.u64(order_.size());
  forEachCell([&](const LibCell& c) {
    hasher.str(c.name);
    hasher.u64(static_cast<std::uint64_t>(c.kind));
    hasher.f64(c.area);
    hasher.f64(c.leakage);
    if (c.seq.has_value()) {
      hasher.u64(1);
      hasher.str(c.seq->state_var);
      hasher.str(c.seq->state_var_n);
      hasher.str(c.seq->clocked_on);
      hasher.str(c.seq->next_state);
      hasher.str(c.seq->enable);
      hasher.str(c.seq->data_in);
      hasher.str(c.seq->clear);
      hasher.str(c.seq->preset);
    } else {
      hasher.u64(0);
    }
    hasher.u64(c.pins.size());
    for (const LibPin& p : c.pins) {
      hasher.str(p.name);
      hasher.u64(static_cast<std::uint64_t>(p.dir));
      hasher.f64(p.capacitance);
      hasher.f64(p.max_capacitance);
      hasher.u64(p.is_clock ? 1 : 0);
      hasher.str(p.nextstate_type);
      hasher.str(p.function_str);
      hasher.u64(p.arcs.size());
      for (const TimingArc& a : p.arcs) {
        hasher.str(a.related_pin);
        hasher.u64(static_cast<std::uint64_t>(a.type));
        hasher.f64(a.intrinsic_rise);
        hasher.f64(a.intrinsic_fall);
        hasher.f64(a.rise_resistance);
        hasher.f64(a.fall_resistance);
      }
    }
  });
  return hasher.digest();
}

const LibCell& Library::cell(std::string_view name) const {
  const LibCell* c = findCell(name);
  if (c == nullptr) {
    throw LibraryError("unknown cell: " + std::string(name));
  }
  return *c;
}

}  // namespace desync::liberty
