// Tests for the backend PnR-lite: CTS, placement legality/locality, area
// accounting and the routability model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "designs/cpu.h"
#include "designs/small.h"
#include "liberty/stdlib90.h"
#include "pnr/pnr.h"

namespace nl = desync::netlist;
namespace lib = desync::liberty;
namespace pnr = desync::pnr;
namespace designs = desync::designs;

namespace {

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

TEST(Pnr, AreaStatsSplitCombAndSeq) {
  nl::Design d;
  designs::buildCounter(d, gf(), 8);
  pnr::AreaStats s = pnr::areaStats(*d.findModule("counter"), gf());
  EXPECT_EQ(s.cells, d.findModule("counter")->numCells());
  EXPECT_GT(s.comb_area, 0.0);
  EXPECT_GT(s.seq_area, 0.0);
  EXPECT_NEAR(s.cell_area, s.comb_area + s.seq_area, 1e-9);
}

TEST(Pnr, CtsBuffersTheClock) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  nl::Module& m = *d.findModule("dlx");
  std::size_t before = m.numCells();
  pnr::PnrResult r = pnr::placeAndRoute(m, gf());
  EXPECT_GT(r.cts_buffers, 50u);
  EXPECT_EQ(r.cells_post, before + r.cts_buffers);
  // Every net (including the treed clock) now respects the fanout cap...
  // except leaf buffers with up to cts_max_fanout sinks.
  nl::NetId clk = m.port(m.findPort("clk")).net;
  EXPECT_LE(m.sinks(clk).size(), 12u);
  EXPECT_TRUE(m.checkInvariants().empty());
}

TEST(Pnr, PlacementCoversAllCellsWithoutOverlapPerRow) {
  nl::Design d;
  designs::buildCounter(d, gf(), 16);
  nl::Module& m = *d.findModule("counter");
  pnr::PnrResult r = pnr::placeAndRoute(m, gf());
  EXPECT_EQ(r.placement.size(), m.numCells());
  // Within each row, placements must not overlap.
  std::map<double, std::vector<std::pair<double, double>>> rows;
  const lib::Library& l = gf().library();
  for (const pnr::Placement& p : r.placement) {
    const lib::LibCell* c = l.findCell(std::string(m.cellType(p.cell)));
    double w = c->area / 2.8;
    rows[p.y].push_back({p.x, p.x + w});
  }
  for (auto& [y, spans] : rows) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-6)
          << "overlap in row " << y;
    }
  }
}

TEST(Pnr, MinCutBeatsRandomOrderWirelength) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  nl::Module& m = *d.findModule("dlx");
  pnr::PnrResult r = pnr::placeAndRoute(m, gf());
  // Compare against the expected wirelength of a random placement: average
  // net span ~ 2/3 the core side in each dimension.
  const double side = std::sqrt(r.core_size);
  const double random_hpwl =
      static_cast<double>(r.nets_post) * (2.0 / 3.0) * side * 2.0;
  EXPECT_LT(r.total_hpwl_um, random_hpwl * 0.5)
      << "placer should clearly beat random";
}

TEST(Pnr, UtilizationInPlausibleBand) {
  nl::Design d;
  designs::buildCpu(d, gf(), designs::dlxConfig());
  pnr::PnrResult r = pnr::placeAndRoute(*d.findModule("dlx"), gf());
  EXPECT_GT(r.utilization, 0.6);
  EXPECT_LE(r.utilization, 0.97);
  EXPECT_GT(r.core_size, r.std_cell_area);
}

TEST(Pnr, TighterRoutingSupplyGrowsCore) {
  nl::Design d1, d2;
  designs::buildCpu(d1, gf(), designs::dlxConfig());
  designs::buildCpu(d2, gf(), designs::dlxConfig());
  pnr::PnrOptions generous;
  generous.routing_supply = 30.0;
  pnr::PnrOptions tight;
  tight.routing_supply = 5.0;
  pnr::PnrResult a = pnr::placeAndRoute(*d1.findModule("dlx"), gf(), generous);
  pnr::PnrResult b = pnr::placeAndRoute(*d2.findModule("dlx"), gf(), tight);
  EXPECT_GT(b.core_size, a.core_size);
  EXPECT_LT(b.utilization, a.utilization);
}

}  // namespace

namespace {

TEST(Pnr, DeterministicAcrossRuns) {
  auto run = [] {
    nl::Design d;
    designs::buildCounter(d, gf(), 16);
    return pnr::placeAndRoute(*d.findModule("counter"), gf());
  };
  pnr::PnrResult a = run();
  pnr::PnrResult b = run();
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_EQ(a.placement[i].cell.value, b.placement[i].cell.value);
    EXPECT_DOUBLE_EQ(a.placement[i].x, b.placement[i].x);
    EXPECT_DOUBLE_EQ(a.placement[i].y, b.placement[i].y);
  }
  EXPECT_DOUBLE_EQ(a.total_hpwl_um, b.total_hpwl_um);
  EXPECT_DOUBLE_EQ(a.core_size, b.core_size);
}

}  // namespace
