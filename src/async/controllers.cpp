#include "async/controllers.h"

#include "async/cell_builder.h"
#include "async/celement.h"

namespace desync::async {

using netlist::Design;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

std::string controllerName(ControllerKind kind, ControllerReset reset) {
  std::string name = kind == ControllerKind::kSimple ? "DR_CTRL_SIMPLE"
                     : kind == ControllerKind::kSemiDecoupled
                         ? "DR_CTRL_SD"
                         : "DR_CTRL_FD";
  name += reset == ControllerReset::kEmpty ? "_E" : "_F";
  return name;
}

namespace {

/// Common port scaffolding; returns the nets in declaration order.
struct CtrlNets {
  NetId ri, ao, rst, ai, ro, g;
};

CtrlNets addPorts(CellBuilder& b) {
  CtrlNets n;
  n.ri = b.net("ri");
  n.ao = b.net("ao");
  n.rst = b.net("rst");
  b.port("ri", PortDir::kInput, n.ri);
  b.port("ao", PortDir::kInput, n.ao);
  b.port("rst", PortDir::kInput, n.rst);
  return n;
}

void buildSimple(Design& design, const liberty::Gatefile& gatefile, Module& m,
                 ControllerReset reset) {
  CellBuilder b(m);
  CtrlNets n = addPorts(b);
  NetId aoN = b.net("aoN");
  b.cell("u_aon", "IV",
         {{"A", PortDir::kInput, n.ao}, {"Z", PortDir::kOutput, aoN}});
  // g = C(ri, !ao), reset per flavour.
  ResetKind rk =
      reset == ControllerReset::kEmpty ? ResetKind::kLow : ResetKind::kHigh;
  Module& c2 = ensureCElement(design, gatefile, 2, rk);
  NetId g = b.net("g_int");
  b.cell("u_c", c2.name(),
         {{"A0", PortDir::kInput, n.ri},
          {"A1", PortDir::kInput, aoN},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, g}});
  // ai and ro are buffered copies of g: distinct output nets keep the
  // module flattenable (one inner net cannot bind three outer nets) and
  // reflect real output drive buffering.
  NetId ai = b.net("ai_int");
  NetId ro = b.net("ro_int");
  b.cell("u_ai", "BF",
         {{"A", PortDir::kInput, g}, {"Z", PortDir::kOutput, ai}});
  b.cell("u_ro", "BF",
         {{"A", PortDir::kInput, g}, {"Z", PortDir::kOutput, ro}});
  b.port("ai", PortDir::kOutput, ai);
  b.port("ro", PortDir::kOutput, ro);
  b.port("g", PortDir::kOutput, g);
}

void buildSemiDecoupled(Design& design, const liberty::Gatefile& gatefile,
                        Module& m, ControllerReset reset) {
  CellBuilder b(m);
  CtrlNets n = addPorts(b);
  const bool full = reset == ControllerReset::kFull;

  NetId aoN = b.net("aoN");
  b.cell("u_aon", "IV",
         {{"A", PortDir::kInput, n.ao}, {"Z", PortDir::kOutput, aoN}});

  n.g = b.net("g_int");
  NetId d = b.net("d");
  NetId dn = b.net("dn");
  NetId a = b.net("a");
  NetId e = b.net("e");

  // "Ready" condition: empty and successor idle (e = aoN & !d).  Sensing
  // ao- through the shared aoN inverter (rather than ao directly) keeps the
  // inverter inside the acknowledged cycle: the occupancy-clear gate dn
  // reads aoN, so a new capture may only start after aoN actually rose —
  // otherwise a stale aoN misclears the next datum (found by the
  // speed-independent verifier).
  b.cell("u_e", "AN2B1",
         {{"A", PortDir::kInput, aoN},
          {"B", PortDir::kInput, d},
          {"Z", PortDir::kOutput, e}});

  // Latch enable as a C-element: opens on a request while ready, closes
  // only once the request withdrew AND the occupancy latched — so neither
  // edge of the pulse can be withdrawn by a faster environment (verified
  // semi-modular).
  Module& c2r0 = ensureCElement(design, gatefile, 2, ResetKind::kLow);
  b.cell("u_g", c2r0.name(),
         {{"A0", PortDir::kInput, n.ri},
          {"A1", PortDir::kInput, e},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, n.g}});

  // Input acknowledge: a = C(g, ri).  The occupancy bit is set by a (not by
  // g) so the latch pulse cannot terminate before the acknowledge
  // C-element caught it.
  b.cell("u_a", c2r0.name(),
         {{"A0", PortDir::kInput, n.g},
          {"A1", PortDir::kInput, n.ri},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, a}});

  // Occupancy: d = (d & !ao) | a.  AOI21 computes !((d & aoN) + a); the
  // reset gate closes the feedback loop and applies rst.  d clears only
  // once the input handshake released (a-) and the successor captured
  // (ao+), which is the overwrite protection of the protocol.
  b.cell("u_dn", "AOI21",
         {{"A", PortDir::kInput, d},
          {"B", PortDir::kInput, aoN},
          {"C", PortDir::kInput, a},
          {"Z", PortDir::kOutput, dn}});
  if (full) {
    // d = !dn | rst
    b.cell("u_d", "OR2B1",
           {{"A", PortDir::kInput, n.rst},
            {"B", PortDir::kInput, dn},
            {"Z", PortDir::kOutput, d}});
  } else {
    // d = !dn & !rst
    b.cell("u_d", "NR2",
           {{"A", PortDir::kInput, dn},
            {"B", PortDir::kInput, n.rst},
            {"Z", PortDir::kOutput, d}});
  }

  // Output request: r = C(d, !ao); the full flavour requests at reset
  // ("ao- -> ro+", thesis Fig 4.5).
  Module& c2r = ensureCElement(design, gatefile, 2,
                               full ? ResetKind::kHigh : ResetKind::kLow);
  NetId r = b.net("r");
  b.cell("u_r", c2r.name(),
         {{"A0", PortDir::kInput, d},
          {"A1", PortDir::kInput, aoN},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, r}});

  b.port("ai", PortDir::kOutput, a);
  b.port("ro", PortDir::kOutput, r);
  b.port("g", PortDir::kOutput, n.g);
}

void buildFullyDecoupled(Design& design, const liberty::Gatefile& gatefile,
                         Module& m, ControllerReset reset) {
  CellBuilder b(m);
  CtrlNets n = addPorts(b);
  const bool full = reset == ControllerReset::kFull;

  NetId aoN = b.net("aoN");
  b.cell("u_aon", "IV",
         {{"A", PortDir::kInput, n.ao}, {"Z", PortDir::kOutput, aoN}});
  n.g = b.net("g_int");
  NetId d = b.net("d");
  NetId dN = b.net("dN");
  NetId a = b.net("a");
  NetId aN = b.net("aN");
  NetId r = b.net("r");
  NetId rN = b.net("rN");

  // Latch pulse: opens on a request while empty, closes once the occupancy
  // latched (and the request withdrew).
  Module& c2r0 = ensureCElement(design, gatefile, 2, ResetKind::kLow);
  b.cell("u_g", c2r0.name(),
         {{"A0", PortDir::kInput, n.ri},
          {"A1", PortDir::kInput, dN},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, n.g}});

  // Input acknowledge: a = C(g, ri, !r) — the third input orders the
  // acknowledge release after the local request's return-to-zero, which is
  // what keeps d's set/clear edges acknowledged without gating the latch on
  // the *external* ao- (the fully-decoupled property).
  NetId gri = b.net("gri");
  b.cell("u_a0", c2r0.name(),
         {{"A0", PortDir::kInput, n.g},
          {"A1", PortDir::kInput, n.ri},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, gri}});
  b.cell("u_a", c2r0.name(),
         {{"A0", PortDir::kInput, gri},
          {"A1", PortDir::kInput, rN},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, a}});
  b.cell("u_an", "IV",
         {{"A", PortDir::kInput, a}, {"Z", PortDir::kOutput, aN}});

  // Occupancy SR: d = (d & !ao) | a, built as dN = !((!d | ao) & !a)'s
  // complement pair: dN_next = (dN + ao) * aN; d = IV(dN) closes the loop
  // reading ao directly (no stale inverter in the clear path).
  if (full) {
    // Reset forces d = 1 (dN = 0): dnn = OAI21 then NOR with... use the
    // complement: d = IV(dN); force dN low with rst via AN2B1.
    NetId dnn = b.net("dnn");
    b.cell("u_dn0", "OAI21",
           {{"A", PortDir::kInput, dN},
            {"B", PortDir::kInput, n.ao},
            {"C", PortDir::kInput, aN},
            {"Z", PortDir::kOutput, dnn}});
    // dN = !dnn & !rst
    NetId dnb = b.net("dnb");
    b.cell("u_dn1", "IV",
           {{"A", PortDir::kInput, dnn}, {"Z", PortDir::kOutput, dnb}});
    b.cell("u_dn2", "AN2B1",
           {{"A", PortDir::kInput, dnb},
            {"B", PortDir::kInput, n.rst},
            {"Z", PortDir::kOutput, dN}});
    b.cell("u_d", "IV",
           {{"A", PortDir::kInput, dN}, {"Z", PortDir::kOutput, d}});
  } else {
    // dN_next = ((dN + ao) * aN) | rst  (reset forces dN = 1, d = 0).
    NetId dnn = b.net("dnn");
    b.cell("u_dn0", "OAI21",
           {{"A", PortDir::kInput, dN},
            {"B", PortDir::kInput, n.ao},
            {"C", PortDir::kInput, aN},
            {"Z", PortDir::kOutput, dnn}});
    // dnn = !dN_next(no-rst); dN = !dnn | rst = OR2B1(rst, dnn)
    b.cell("u_dn1", "OR2B1",
           {{"A", PortDir::kInput, n.rst},
            {"B", PortDir::kInput, dnn},
            {"Z", PortDir::kOutput, dN}});
    b.cell("u_d", "IV",
           {{"A", PortDir::kInput, dN}, {"Z", PortDir::kOutput, d}});
  }

  // Output request: 4-phase on the wire (r+ waits ao-).
  Module& c2r = ensureCElement(design, gatefile, 2,
                               full ? ResetKind::kHigh : ResetKind::kLow);
  b.cell("u_r", c2r.name(),
         {{"A0", PortDir::kInput, d},
          {"A1", PortDir::kInput, aoN},
          {"RST", PortDir::kInput, n.rst},
          {"Z", PortDir::kOutput, r}});
  b.cell("u_rn", "IV",
         {{"A", PortDir::kInput, r}, {"Z", PortDir::kOutput, rN}});

  b.port("ai", PortDir::kOutput, a);
  b.port("ro", PortDir::kOutput, r);
  b.port("g", PortDir::kOutput, n.g);
}

}  // namespace

Module& ensureController(Design& design, const liberty::Gatefile& gatefile,
                         ControllerKind kind, ControllerReset reset) {
  std::string name = controllerName(kind, reset);
  if (Module* existing = design.findModule(name)) return *existing;
  Module& m = design.addModule(name);
  if (kind == ControllerKind::kSimple) {
    buildSimple(design, gatefile, m, reset);
  } else if (kind == ControllerKind::kFullyDecoupled) {
    buildFullyDecoupled(design, gatefile, m, reset);
  } else {
    buildSemiDecoupled(design, gatefile, m, reset);
  }
  // Controllers must never be resynthesized (thesis §4.6.2); backends may
  // only resize.
  m.forEachCell([&](netlist::CellId id) { m.cell(id).size_only = true; });
  return m;
}

Module& buildControllerRing(Design& design, const liberty::Gatefile& gatefile,
                            ControllerKind kind, int n_pairs) {
  if (n_pairs < 1) throw netlist::NetlistError("ring needs >= 1 pair");
  std::vector<bool> mask;
  for (int i = 0; i < 2 * n_pairs; ++i) mask.push_back(i % 2 == 1);
  std::string name = std::string("DR_RING_") +
                     (kind == ControllerKind::kSimple          ? "SIMPLE"
                      : kind == ControllerKind::kFullyDecoupled ? "FD"
                                                                 : "SD") +
                     "_" + std::to_string(2 * n_pairs);
  return buildControllerRing(design, gatefile, kind, mask, name);
}

Module& buildControllerRing(Design& design, const liberty::Gatefile& gatefile,
                            ControllerKind kind,
                            const std::vector<bool>& full_mask,
                            const std::string& name) {
  const int n = static_cast<int>(full_mask.size());
  if (n < 2) throw netlist::NetlistError("ring needs >= 2 controllers");
  if (Module* existing = design.findModule(name)) return *existing;

  Module& empty_ctrl =
      ensureController(design, gatefile, kind, ControllerReset::kEmpty);
  Module& full_ctrl =
      ensureController(design, gatefile, kind, ControllerReset::kFull);

  Module& m = design.addModule(name);
  CellBuilder b(m);
  NetId rst = b.net("rst");
  b.port("rst", PortDir::kInput, rst);

  std::vector<NetId> req(static_cast<std::size_t>(n)),
      ack(static_cast<std::size_t>(n)), g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    req[static_cast<std::size_t>(i)] =
        b.net("r" + std::to_string(i));  // ro of i -> ri of i+1
    ack[static_cast<std::size_t>(i)] =
        b.net("k" + std::to_string(i));  // ai of i+1 -> ao of i
    g[static_cast<std::size_t>(i)] = b.net("g" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    const int prev = (i + n - 1) % n;
    const Module& proto =
        full_mask[static_cast<std::size_t>(i)] ? full_ctrl : empty_ctrl;
    b.cell("ctl" + std::to_string(i), proto.name(),
           {{"ri", PortDir::kInput, req[static_cast<std::size_t>(prev)]},
            {"ao", PortDir::kInput, ack[static_cast<std::size_t>(i)]},
            {"rst", PortDir::kInput, rst},
            {"ai", PortDir::kOutput, ack[static_cast<std::size_t>(prev)]},
            {"ro", PortDir::kOutput, req[static_cast<std::size_t>(i)]},
            {"g", PortDir::kOutput, g[static_cast<std::size_t>(i)]}});
  }
  for (int i = 0; i < n; ++i) {
    b.port("g" + std::to_string(i), PortDir::kOutput,
           g[static_cast<std::size_t>(i)]);
  }
  return m;
}

stg::Stg semiDecoupledSpec() {
  stg::Stg s;
  s.addSignal("ri", stg::SignalKind::kInput);
  s.addSignal("ao", stg::SignalKind::kInput);
  s.addSignal("ai", stg::SignalKind::kOutput);
  s.addSignal("ro", stg::SignalKind::kOutput);
  s.addSignal("g", stg::SignalKind::kOutput);

  // Latch cycle: g+ on ri+ while ready (empty, successor idle); the pulse
  // ends only after the request withdrew and the occupancy latched.
  s.connect("ri+", "g+", 0);
  s.connect("ao-", "g+", 1);
  s.connect("g+", "ai+", 0);
  s.connect("ai+", "g-", 0);   // d+ (after a+) lets the C-element fall
  s.connect("ri-", "g-", 0);
  // Input handshake: early acknowledge (thesis Fig 4.5 "ri+ -> ai+" via the
  // latch pulse); release after both ri- and the pulse ended.
  s.connect("ai+", "ri-", 0);   // environment
  s.connect("ri-", "ai-", 0);
  s.connect("g-", "ai-", 0);
  s.connect("ai-", "ri+", 1);   // environment (token: ri may rise first)
  // Output handshake from the occupancy bit (set by ai+): request once
  // holding data and the successor is free; withdraw after the successor
  // acknowledged and the occupancy cleared (needs both ao+ and ai-).
  s.connect("ai+", "ro+", 0);
  s.connect("ao-", "ro+", 1);   // "ao- -> ro+" (thesis Fig 4.5)
  s.connect("ro+", "ao+", 0);   // environment
  s.connect("ao+", "ro-", 0);
  s.connect("ai-", "ro-", 0);
  s.connect("ro-", "ao-", 0);   // environment
  s.connect("ro-", "ro+", 1);
  // Re-opening: needs the datum delivered (occupancy cleared after ai- and
  // ao+, then the full return-to-zero via the marked ao- arc above) and the
  // previous pulse/input handshake done.
  s.connect("ai-", "g+", 1);
  s.connect("g-", "g+", 1);
  return s;
}

stg::Stg simpleControllerSpec() {
  stg::Stg s;
  s.addSignal("ri", stg::SignalKind::kInput);
  s.addSignal("ao", stg::SignalKind::kInput);
  s.addSignal("ai", stg::SignalKind::kOutput);
  s.addSignal("ro", stg::SignalKind::kOutput);
  s.addSignal("g", stg::SignalKind::kOutput);
  // g = C(ri, !ao); ai = ro = g: all three outputs switch together.
  // Spec: g+ after ri+ & ao-; g- after ri- & ao+.
  s.connect("ri+", "g+", 0);
  s.connect("ao-", "g+", 1);
  s.connect("ri+", "ai+", 0);
  s.connect("ao-", "ai+", 1);
  s.connect("ri+", "ro+", 0);
  s.connect("ao-", "ro+", 1);
  // environment
  s.connect("ai+", "ri-", 0);
  s.connect("ri-", "g-", 0);
  s.connect("ri-", "ai-", 0);
  s.connect("ri-", "ro-", 0);
  s.connect("ro+", "ao+", 0);
  s.connect("ao+", "g-", 0);
  s.connect("ao+", "ai-", 0);
  s.connect("ao+", "ro-", 0);
  s.connect("ai-", "ri+", 1);
  s.connect("ro-", "ao-", 0);
  // alternation
  s.connect("g+", "g-", 0);
  s.connect("g-", "g+", 1);
  s.connect("ai+", "ai-", 0);
  s.connect("ai-", "ai+", 1);
  s.connect("ro+", "ro-", 0);
  s.connect("ro-", "ro+", 1);
  return s;
}

}  // namespace desync::async
