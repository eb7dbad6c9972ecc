// Builds the cells, nets and ports of a generated module over interned
// names.  Each call interns its names in the order Module's string
// overloads do (a cell: instance, type, then each pin), so the name table
// ends up the same, and hands Module a stack array of PinConns: a cell
// costs no allocation of its own.
#pragma once

#include <array>
#include <cassert>
#include <initializer_list>
#include <span>
#include <string_view>

#include "netlist/netlist.h"

namespace desync::async {

class CellBuilder {
 public:
  struct Pin {
    std::string_view name;
    netlist::PortDir dir;
    netlist::NetId net;
  };

  explicit CellBuilder(netlist::Module& m)
      : m_(m), names_(m.design().names()) {}

  netlist::NetId net(std::string_view name) {
    return m_.addNet(names_.intern(name));
  }

  netlist::CellId cell(std::string_view name, std::string_view type,
                       std::initializer_list<Pin> pins) {
    const netlist::NameId name_id = names_.intern(name);
    const netlist::NameId type_id = names_.intern(type);
    std::array<netlist::PinConn, 6> conns;
    assert(pins.size() <= conns.size());
    std::size_t n = 0;
    for (const Pin& p : pins) {
      conns[n++] = {names_.intern(p.name), p.dir, p.net};
    }
    return m_.addCell(name_id, type_id, std::span(conns.data(), n));
  }

  void port(std::string_view name, netlist::PortDir dir, netlist::NetId net) {
    m_.addPort(names_.intern(name), dir, net);
  }

 private:
  netlist::Module& m_;
  netlist::NameTable& names_;
};

}  // namespace desync::async
