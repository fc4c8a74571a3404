// Unit and property tests for the topology module: route validity,
// determinism, symmetry of hop counts, and sizing helpers. Parameterized
// sweeps run every topology through the same invariants.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "topo/topology.hpp"

namespace hps::topo {
namespace {

TEST(Torus, NodeAndLinkCounts) {
  Torus3D t(4, 4, 4);
  EXPECT_EQ(t.num_nodes(), 64);
  EXPECT_EQ(t.num_links(), 64 * 6);
}

TEST(Torus, SelfRouteIsEmpty) {
  Torus3D t(4, 4, 4);
  std::vector<LinkId> links;
  t.route(7, 7, links);
  EXPECT_TRUE(links.empty());
}

TEST(Torus, NeighborRouteIsOneHop) {
  Torus3D t(4, 4, 4);
  std::vector<LinkId> links;
  t.route(0, 1, links);
  EXPECT_EQ(links.size(), 1u);
}

TEST(Torus, WrapAroundIsShort) {
  Torus3D t(8, 1, 1);
  std::vector<LinkId> links;
  t.route(0, 7, links);  // 0 -> 7 wraps backwards in one hop
  EXPECT_EQ(links.size(), 1u);
}

TEST(Torus, DiameterBound) {
  Torus3D t(4, 4, 4);
  for (NodeId a = 0; a < 64; a += 7)
    for (NodeId b = 0; b < 64; b += 5)
      EXPECT_LE(t.hop_count(a, b), 2 + 2 + 2);  // nx/2 per dimension
}

TEST(Torus, HopCountSymmetric) {
  Torus3D t(3, 4, 5);
  for (NodeId a = 0; a < t.num_nodes(); a += 11)
    for (NodeId b = 0; b < t.num_nodes(); b += 7)
      EXPECT_EQ(t.hop_count(a, b), t.hop_count(b, a));
}

TEST(Dragonfly, CountsMatchGeometry) {
  Dragonfly d(5, 4, 2, 1);
  EXPECT_EQ(d.num_nodes(), 5 * 4 * 2);
}

TEST(Dragonfly, RejectsTooFewGlobalPorts) {
  // 10 groups need 9 global ports per group, but 2 routers x 2 ports = 4.
  EXPECT_DEATH(Dragonfly(10, 2, 2, 2), "global ports");
}

TEST(Dragonfly, IntraRouterRoute) {
  Dragonfly d(3, 4, 2, 1);
  std::vector<LinkId> links;
  d.route(0, 1, links);  // same router: terminal up + terminal down
  EXPECT_EQ(links.size(), 2u);
}

TEST(Dragonfly, IntraGroupRoute) {
  Dragonfly d(3, 4, 2, 1);
  std::vector<LinkId> links;
  d.route(0, 2, links);  // router 0 -> router 1 within group 0
  EXPECT_EQ(links.size(), 3u);  // up, local, down
}

TEST(Dragonfly, InterGroupMinimalRouteLength) {
  Dragonfly d(5, 4, 2, 1);
  std::vector<LinkId> links;
  // Longest minimal path: up, local, global, local, down = 5 links.
  for (NodeId a = 0; a < d.num_nodes(); a += 3)
    for (NodeId b = 0; b < d.num_nodes(); b += 5) {
      if (a == b) continue;
      d.route(a, b, links);
      EXPECT_GE(links.size(), 2u);
      EXPECT_LE(links.size(), 5u);
    }
}

TEST(Dragonfly, ValiantNeverExceedsTwoGlobalHops) {
  Dragonfly d(5, 4, 2, 1, /*valiant=*/true);
  std::vector<LinkId> links;
  for (std::uint64_t salt = 0; salt < 20; ++salt) {
    d.route(0, d.num_nodes() - 1, links, salt);
    EXPECT_LE(links.size(), 8u);  // up + (l g)x2 + l + down
  }
}

TEST(Dragonfly, SpareGlobalPortsBecomeParallelLinks) {
  // Two groups with 8 routers x 1 port each: all 8 ports should be usable as
  // parallel links between the pair, not just one (the Edison-at-64-nodes
  // bottleneck regression).
  Dragonfly d(2, 8, 2, 1);
  std::set<LinkId> globals_used;
  std::vector<LinkId> links;
  const LinkId first_global = 2 * d.num_nodes() + 2 * 8 * 8;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    d.route(0, d.num_nodes() - 1, links, salt);
    for (const LinkId l : links)
      if (l >= first_global) globals_used.insert(l);
  }
  EXPECT_GE(globals_used.size(), 4u) << "parallel global links unused";
}

TEST(FatTree, CountsMatchGeometry) {
  FatTree f(4);
  EXPECT_EQ(f.num_nodes(), 16);
}

TEST(FatTree, SameEdgeRoute) {
  FatTree f(4);
  std::vector<LinkId> links;
  f.route(0, 1, links);  // same edge switch
  EXPECT_EQ(links.size(), 2u);
}

TEST(FatTree, SamePodRoute) {
  FatTree f(4);
  std::vector<LinkId> links;
  f.route(0, 2, links);  // different edge, same pod: up-agg-down
  EXPECT_EQ(links.size(), 4u);
}

TEST(FatTree, CrossPodRoute) {
  FatTree f(4);
  std::vector<LinkId> links;
  f.route(0, 15, links);
  EXPECT_EQ(links.size(), 6u);  // node-edge-agg-core-agg-edge-node
}

TEST(FatTree, RequiresEvenK) { EXPECT_DEATH(FatTree(3), "k"); }

// --- Parameterized invariants over all topologies -------------------------

struct TopoCase {
  std::string label;
  std::unique_ptr<Topology> (*make)();
};

// Without a printer gtest dumps the raw bytes, which include the heap address
// of the label's buffer; that dump ends up in the ctest name, so the names
// would change on every rebuild.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.label; }

class TopologyInvariants : public ::testing::TestWithParam<TopoCase> {};

TEST_P(TopologyInvariants, RoutesUseValidLinksAndAreDeterministic) {
  const auto topo = GetParam().make();
  const NodeId n = topo->num_nodes();
  std::vector<LinkId> links, links2;
  for (NodeId a = 0; a < n; a += std::max(1, n / 13))
    for (NodeId b = 0; b < n; b += std::max(1, n / 11)) {
      topo->route(a, b, links, 3);
      topo->route(a, b, links2, 3);
      EXPECT_EQ(links, links2) << "route must be deterministic for a salt";
      if (a == b) {
        EXPECT_TRUE(links.empty());
        continue;
      }
      EXPECT_FALSE(links.empty());
      std::set<LinkId> seen;
      for (const LinkId l : links) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, topo->num_links());
        EXPECT_TRUE(seen.insert(l).second) << "route revisits a link (loop)";
      }
    }
}

TEST_P(TopologyInvariants, AverageHopsPositive) {
  const auto topo = GetParam().make();
  if (topo->num_nodes() < 2) GTEST_SKIP();
  EXPECT_GT(topo->average_hops(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologyInvariants,
    ::testing::Values(
        TopoCase{"torus_443",
                 [] { return std::unique_ptr<Topology>(std::make_unique<Torus3D>(4, 4, 3)); }},
        TopoCase{"torus_811",
                 [] { return std::unique_ptr<Topology>(std::make_unique<Torus3D>(8, 1, 1)); }},
        TopoCase{"dragonfly",
                 [] {
                   return std::unique_ptr<Topology>(std::make_unique<Dragonfly>(5, 4, 2, 1));
                 }},
        TopoCase{"dragonfly_valiant",
                 [] {
                   return std::unique_ptr<Topology>(
                       std::make_unique<Dragonfly>(5, 4, 2, 1, true));
                 }},
        TopoCase{"fattree4",
                 [] { return std::unique_ptr<Topology>(std::make_unique<FatTree>(4)); }},
        TopoCase{"fattree8",
                 [] { return std::unique_ptr<Topology>(std::make_unique<FatTree>(8)); }}),
    [](const ::testing::TestParamInfo<TopoCase>& info) { return info.param.label; });

TEST(Sizing, TorusForCoversRequest) {
  for (int n : {1, 7, 64, 100, 1000}) {
    const auto t = make_torus_for(n);
    EXPECT_GE(t->num_nodes(), n);
    EXPECT_LE(t->num_nodes(), 3 * n + 8) << "oversizing too much for " << n;
  }
}

TEST(Sizing, DragonflyForCoversRequest) {
  for (int n : {1, 10, 64, 200, 2000}) {
    const auto t = make_dragonfly_for(n);
    EXPECT_GE(t->num_nodes(), n);
  }
}

TEST(Sizing, FatTreeForCoversRequest) {
  for (int n : {1, 16, 100, 500}) {
    const auto t = make_fattree_for(n);
    EXPECT_GE(t->num_nodes(), n);
  }
}

}  // namespace
}  // namespace hps::topo
