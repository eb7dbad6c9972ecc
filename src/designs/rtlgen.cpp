#include "designs/rtlgen.h"

#include <stdexcept>

namespace desync::designs {

using netlist::NetId;
using netlist::PortDir;

Rtl::Rtl(netlist::Module& module, const liberty::Gatefile& gatefile)
    : m_(&module), gf_(&gatefile) {}

NetId Rtl::newNet(const std::string& base) {
  std::string name = base + "_n" + std::to_string(counter_++);
  return m_->addNet(name);
}

NetId Rtl::gate1(const char* type, NetId a) {
  NetId z = newNet(type);
  m_->addCell("u" + std::to_string(counter_++), type,
              {{"A", PortDir::kInput, a}, {"Z", PortDir::kOutput, z}});
  return z;
}

NetId Rtl::gate2(const char* type, NetId a, NetId b) {
  NetId z = newNet(type);
  m_->addCell("u" + std::to_string(counter_++), type,
              {{"A", PortDir::kInput, a},
               {"B", PortDir::kInput, b},
               {"Z", PortDir::kOutput, z}});
  return z;
}

NetId Rtl::gate3(const char* type, NetId a, NetId b, NetId c) {
  NetId z = newNet(type);
  m_->addCell("u" + std::to_string(counter_++), type,
              {{"A", PortDir::kInput, a},
               {"B", PortDir::kInput, b},
               {"C", PortDir::kInput, c},
               {"Z", PortDir::kOutput, z}});
  return z;
}

Bus Rtl::input(const std::string& name, int width) {
  Bus bus;
  if (width == 1) {
    NetId n = m_->addNet(name);
    m_->addPort(name, PortDir::kInput, n);
    bus.push_back(n);
    return bus;
  }
  for (int i = 0; i < width; ++i) {
    std::string bit_name = name + "[" + std::to_string(i) + "]";
    NetId n = m_->addNet(bit_name, name, i);
    m_->addPort(bit_name, PortDir::kInput, n, name, i);
    bus.push_back(n);
  }
  return bus;
}

void Rtl::output(const std::string& name, const Bus& bus) {
  if (bus.size() == 1) {
    m_->addPort(name, PortDir::kOutput, bus[0]);
    return;
  }
  for (std::size_t i = 0; i < bus.size(); ++i) {
    std::string bit_name = name + "[" + std::to_string(i) + "]";
    m_->addPort(bit_name, PortDir::kOutput, bus[i], name,
                static_cast<std::int32_t>(i));
  }
}

Bus Rtl::wire(const std::string& name, int width) {
  Bus bus;
  if (width == 1) {
    bus.push_back(m_->addNet(name + "_w" + std::to_string(counter_++)));
    return bus;
  }
  std::string base = name + "_w" + std::to_string(counter_++);
  for (int i = 0; i < width; ++i) {
    bus.push_back(
        m_->addNet(base + "[" + std::to_string(i) + "]", base, i));
  }
  return bus;
}

Bus Rtl::constant(std::uint64_t value, int width) {
  Bus bus;
  for (int i = 0; i < width; ++i) {
    bus.push_back(m_->constNet(((value >> i) & 1u) != 0));
  }
  return bus;
}

NetId Rtl::zero() { return m_->constNet(false); }
NetId Rtl::one() { return m_->constNet(true); }

Bus Rtl::slice(const Bus& b, int lo, int len) {
  Bus out;
  for (int i = 0; i < len; ++i) {
    out.push_back(b.at(static_cast<std::size_t>(lo + i)));
  }
  return out;
}

Bus Rtl::cat(const Bus& lo, const Bus& hi) {
  Bus out = lo;
  out.insert(out.end(), hi.begin(), hi.end());
  return out;
}

Bus Rtl::extend(const Bus& b, int width) {
  Bus out = b;
  while (static_cast<int>(out.size()) < width) out.push_back(zero());
  out.resize(static_cast<std::size_t>(width));
  return out;
}

Bus Rtl::signExtend(const Bus& b, int width) {
  Bus out = b;
  NetId msb = b.back();
  while (static_cast<int>(out.size()) < width) out.push_back(msb);
  out.resize(static_cast<std::size_t>(width));
  return out;
}

Bus Rtl::inv(const Bus& a) {
  Bus out;
  for (NetId n : a) out.push_back(gate1("IV", n));
  return out;
}

Bus Rtl::andB(const Bus& a, const Bus& b) {
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate2("AN2", a[i], b.at(i)));
  }
  return out;
}

Bus Rtl::orB(const Bus& a, const Bus& b) {
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate2("OR2", a[i], b.at(i)));
  }
  return out;
}

Bus Rtl::xorB(const Bus& a, const Bus& b) {
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(gate2("EO", a[i], b.at(i)));
  }
  return out;
}

NetId Rtl::and2(NetId a, NetId b) { return gate2("AN2", a, b); }
NetId Rtl::or2(NetId a, NetId b) { return gate2("OR2", a, b); }
NetId Rtl::xor2(NetId a, NetId b) { return gate2("EO", a, b); }
NetId Rtl::not1(NetId a) {
  auto it = inv_cache_.find(a.value);
  if (it != inv_cache_.end()) return it->second;
  NetId z = gate1("IV", a);
  inv_cache_.emplace(a.value, z);
  return z;
}
NetId Rtl::nand2(NetId a, NetId b) { return gate2("ND2", a, b); }

NetId Rtl::reduceAnd(const Bus& a) {
  if (a.empty()) return one();
  Bus level = a;
  while (level.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(gate2("AN2", level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

NetId Rtl::reduceOr(const Bus& a) {
  if (a.empty()) return zero();
  Bus level = a;
  while (level.size() > 1) {
    Bus next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(gate2("OR2", level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

Bus Rtl::add(const Bus& a, const Bus& b, NetId carry_in, NetId* carry_out) {
  if (a.size() != b.size()) throw std::invalid_argument("add width mismatch");
  Bus sum;
  NetId carry = carry_in.valid() ? carry_in : zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    NetId axb = gate2("EO", a[i], b[i]);
    sum.push_back(gate2("EO", axb, carry));
    carry = gate3("MAJ3", a[i], b[i], carry);
  }
  if (carry_out != nullptr) *carry_out = carry;
  return sum;
}

Bus Rtl::sub(const Bus& a, const Bus& b) {
  return add(a, inv(b), one(), nullptr);
}

NetId Rtl::eq(const Bus& a, const Bus& b) {
  Bus eqs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    eqs.push_back(gate2("EN", a[i], b.at(i)));  // XNOR
  }
  return reduceAnd(eqs);
}

NetId Rtl::eqConst(const Bus& a, std::uint64_t value) {
  Bus terms;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool bit_set = ((value >> i) & 1u) != 0;
    terms.push_back(bit_set ? a[i] : not1(a[i]));
  }
  return reduceAnd(terms);
}

NetId Rtl::ltUnsigned(const Bus& a, const Bus& b) {
  // a < b  <=>  carry-out of (a + ~b + 1) is 0.
  NetId carry;
  (void)add(a, inv(b), one(), &carry);
  return gate1("IV", carry);
}

Bus Rtl::mux(NetId sel, const Bus& a, const Bus& b) {
  Bus out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    NetId z = newNet("mx");
    m_->addCell("u" + std::to_string(counter_++), "MUX21",
                {{"A", PortDir::kInput, a[i]},
                 {"B", PortDir::kInput, b.at(i)},
                 {"S", PortDir::kInput, sel},
                 {"Z", PortDir::kOutput, z}});
    out.push_back(z);
  }
  return out;
}

Bus Rtl::muxN(const Bus& sel, const std::vector<Bus>& inputs) {
  if (inputs.size() != (std::size_t{1} << sel.size())) {
    throw std::invalid_argument("muxN needs 2^sel inputs");
  }
  std::vector<Bus> level = inputs;
  for (std::size_t s = 0; s < sel.size(); ++s) {
    std::vector<Bus> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(mux(sel[s], level[i], level[i + 1]));
    }
    level = std::move(next);
  }
  return level[0];
}

Bus Rtl::shift(const Bus& a, const Bus& amount, bool left) {
  Bus cur = a;
  const int width = static_cast<int>(a.size());
  for (std::size_t s = 0; s < amount.size(); ++s) {
    const int k = 1 << s;
    if (k >= width) {
      // Shifting by >= width zeroes everything when the bit is set.
      cur = mux(amount[s], cur, constant(0, width));
      continue;
    }
    Bus shifted;
    if (left) {
      shifted = cat(constant(0, k), slice(cur, 0, width - k));
    } else {
      shifted = extend(slice(cur, k, width - k), width);
    }
    cur = mux(amount[s], cur, shifted);
  }
  return cur;
}

Bus Rtl::rom(const std::string& name, const Bus& addr,
             const std::vector<std::uint64_t>& content, int width) {
  (void)name;
  std::size_t entries = std::size_t{1} << addr.size();
  std::vector<Bus> words;
  words.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    std::uint64_t value = i < content.size() ? content[i] : 0;
    words.push_back(constant(value, width));
  }
  return muxN(addr, words);
}

Bus Rtl::decode(const Bus& a) {
  Bus out;
  const std::size_t n = std::size_t{1} << a.size();
  for (std::size_t i = 0; i < n; ++i) out.push_back(eqConst(a, i));
  return out;
}

Bus Rtl::reg(const std::string& name, const Bus& d, NetId clk, NetId rst_n) {
  Bus q;
  // Register outputs keep their bus identity ("name_q[i]"), exactly as a
  // synthesis tool's netlist would — the desynchronizer's bus-name grouping
  // heuristic depends on it (thesis Fig 3.6).
  std::string bus = name + "_q";
  for (std::size_t i = 0; i < d.size(); ++i) {
    NetId qn = d.size() == 1
                   ? m_->addNet(bus + "_s" + std::to_string(counter_++))
                   : m_->addNet(bus + "[" + std::to_string(i) + "]", bus,
                                static_cast<std::int32_t>(i));
    m_->addCell(name + "_r" + std::to_string(i), "DFFR",
                {{"D", PortDir::kInput, d[i]},
                 {"CP", PortDir::kInput, clk},
                 {"CDN", PortDir::kInput, rst_n},
                 {"Q", PortDir::kOutput, qn}});
    q.push_back(qn);
  }
  return q;
}

Bus Rtl::regEn(const std::string& name, const Bus& d, NetId en, NetId clk,
               NetId rst_n) {
  // q <= en ? d : q (mux feedback).
  Bus q;
  // Create the flip-flop output nets first (bus-tagged) so the feedback
  // muxes can read them.
  std::string bus = name + "_q";
  for (std::size_t i = 0; i < d.size(); ++i) {
    NetId qn = d.size() == 1
                   ? m_->addNet(bus + "_s" + std::to_string(counter_++))
                   : m_->addNet(bus + "[" + std::to_string(i) + "]", bus,
                                static_cast<std::int32_t>(i));
    q.push_back(qn);
  }
  Bus dm = mux(en, q, d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    m_->addCell(name + "_r" + std::to_string(i), "DFFR",
                {{"D", PortDir::kInput, dm[i]},
                 {"CP", PortDir::kInput, clk},
                 {"CDN", PortDir::kInput, rst_n},
                 {"Q", PortDir::kOutput, q[i]}});
  }
  return q;
}

void Rtl::regInto(const std::string& name, const Bus& d, NetId clk,
                  NetId rst_n, const Bus& q) {
  if (d.size() != q.size()) {
    throw std::invalid_argument("regInto width mismatch");
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    m_->addCell(name + "_r" + std::to_string(i), "DFFR",
                {{"D", PortDir::kInput, d[i]},
                 {"CP", PortDir::kInput, clk},
                 {"CDN", PortDir::kInput, rst_n},
                 {"Q", PortDir::kOutput, q[i]}});
  }
}

void Rtl::alias(const Bus& placeholder, const Bus& actual) {
  if (placeholder.size() != actual.size()) {
    throw std::invalid_argument("alias width mismatch");
  }
  for (std::size_t i = 0; i < placeholder.size(); ++i) {
    m_->mergeNetInto(placeholder[i], actual[i]);
  }
}

Rtl::RegFile Rtl::regFile(const std::string& name, int words, int width,
                          const Bus& waddr, const Bus& wdata, NetId wen,
                          NetId clk, NetId rst_n) {
  (void)width;  // implied by wdata.size(); kept for interface symmetry
  RegFile rf;
  Bus onehot = decode(waddr);
  for (int w = 0; w < words; ++w) {
    NetId we = gate2("AN2", wen, onehot.at(static_cast<std::size_t>(w)));
    rf.word_q.push_back(
        regEn(name + "_w" + std::to_string(w), wdata, we, clk, rst_n));
  }
  return rf;
}

std::size_t Rtl::bufferHighFanout(int max_fanout) {
  std::size_t added = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (netlist::NetId id : m_->netIds()) {
      const netlist::Net& n = m_->net(id);
      if (n.driver.isPort() || n.driver.kind == netlist::TermKind::kNone ||
          n.driver.isConst()) {
        continue;
      }
      if (static_cast<int>(m_->sinks(id).size()) <= max_fanout) continue;
      // Split the sinks into chunks, each served by one buffer.
      const std::span<const netlist::TermRef> live = m_->sinks(id);
      const std::vector<netlist::TermRef> sinks(live.begin(), live.end());
      std::size_t chunk = static_cast<std::size_t>(max_fanout);
      for (std::size_t start = 0; start < sinks.size(); start += chunk) {
        NetId buf_out = newNet("fbuf");
        m_->addCell("ub" + std::to_string(counter_++), "BF",
                    {{"A", PortDir::kInput, id},
                     {"Z", PortDir::kOutput, buf_out}});
        ++added;
        const std::size_t end = std::min(start + chunk, sinks.size());
        for (std::size_t i = start; i < end; ++i) {
          const netlist::TermRef& t = sinks[i];
          if (t.isCellPin()) {
            m_->connectPin(t.cell(), t.pin, buf_out);
          }
          // Output ports keep the original net (negligible load).
        }
      }
      changed = true;  // the tree may itself need another level
    }
  }
  return added;
}

Bus Rtl::regFileRead(const RegFile& rf, const Bus& raddr) {
  std::vector<Bus> words = rf.word_q;
  // Pad to the mux tree size.
  const std::size_t need = std::size_t{1} << raddr.size();
  while (words.size() < need) {
    words.push_back(constant(0, static_cast<int>(words[0].size())));
  }
  return muxN(raddr, words);
}

}  // namespace desync::designs
