/**
 * @file
 * Deadlock-freedom prover tests: CDG cycle detection on hand-built
 * graphs, the shipped (arch x routing) matrix proved free, and the
 * intentionally mis-balanced RoCo VC tables rejected with a concrete
 * counterexample cycle.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "check/cdg.h"
#include "check/deadlock.h"

namespace noc::check {
namespace {

constexpr RoutingKind kAllRoutings[] = {RoutingKind::XY,
                                        RoutingKind::XYYX,
                                        RoutingKind::Adaptive};

TEST(Cdg, TriangleCycleIsFound)
{
    Cdg g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 3u);
    // The closing edge back() -> front() is implicit; every
    // consecutive pair must be a real edge.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_TRUE(
            g.hasEdge(cycle[i], cycle[(i + 1) % cycle.size()]));
    }
    EXPECT_EQ(std::set<int>(cycle.begin(), cycle.end()).size(), 3u);
}

TEST(Cdg, DagIsAcyclic)
{
    Cdg g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    EXPECT_TRUE(g.findCycle().empty());
}

TEST(Cdg, SelfLoopIsFound)
{
    Cdg g(2);
    g.addEdge(0, 1);
    g.addEdge(1, 1);
    auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 1u);
    EXPECT_EQ(cycle[0], 1);
}

TEST(Cdg, EdgeInsertionIsIdempotent)
{
    Cdg g(100);
    for (int i = 0; i < 10; ++i)
        g.addEdge(3, 77);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_TRUE(g.hasEdge(3, 77));
    EXPECT_FALSE(g.hasEdge(77, 3));
}

TEST(Cdg, MaskInsertionMatchesSingleEdges)
{
    // A mask straddling a word boundary, added twice: the row OR must
    // set exactly the single-edge bits and count each edge once.
    Cdg rows(200);
    Cdg single(200);
    const std::uint64_t mask = 0xf00000000000000full;
    for (int rep = 0; rep < 2; ++rep)
        rows.addEdges(7, 70, mask);
    for (int j = 0; j < 64; ++j) {
        if ((mask >> j) & 1)
            single.addEdge(7, 70 + j);
    }
    EXPECT_EQ(rows.numEdges(), 8u);
    EXPECT_EQ(rows.numEdges(), single.numEdges());
    EXPECT_EQ(rows.digest(), single.digest());
    EXPECT_TRUE(rows.hasEdge(7, 133));
    EXPECT_FALSE(rows.hasEdge(7, 134));
}

TEST(Prover, ShippedRocoTablesAreStrictlyAcyclic)
{
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r =
            proveRoco(topo, kind, RocoCheckOptions::shipped(kind));
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_FALSE(r.viaEscape) << r.summary();
        EXPECT_TRUE(r.cycle.empty());
        EXPECT_GT(r.edges, 0u);
    }
}

TEST(Prover, GenericVcPartitionsAreStrictlyAcyclic)
{
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r = proveGeneric(topo, kind, 3);
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_FALSE(r.viaEscape) << r.summary();
    }
}

TEST(Prover, PathSensitivePoolsNeedTheEscapeTier)
{
    // The quadrant pools produce a strict-CDG cycle of four on-axis
    // straight-line packets under every routing algorithm; the
    // canonical pool assignment proves freedom as an escape
    // subfunction, and the strict cycle is retained for reference.
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        ProofResult r = provePathSensitive(topo, kind, 3);
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
        EXPECT_TRUE(r.viaEscape) << r.summary();
        EXPECT_FALSE(r.cycle.empty());
    }
}

TEST(Prover, UnpartitionedXyYxTableIsRejectedWithACycle)
{
    MeshTopology topo(5, 5);
    RocoCheckOptions opts = RocoCheckOptions::shipped(RoutingKind::XYYX);
    opts.orderPartition = false; // both dimension orders share dx/dy
    ProofResult r = proveRoco(topo, RoutingKind::XYYX, opts);
    EXPECT_FALSE(r.deadlockFree);
    ASSERT_FALSE(r.cycle.empty());
    // The counterexample must name concrete routers and VC classes.
    for (const CycleNode &cn : r.cycle) {
        EXPECT_LT(cn.node, static_cast<NodeId>(topo.numNodes()));
        EXPECT_FALSE(cn.slot.empty());
    }
    EXPECT_NE(r.renderCycle().find("->"), std::string::npos);
    EXPECT_NE(r.summary().find("cycle"), std::string::npos);
}

TEST(Prover, MergedTurnClassesAreRejectedWithACycle)
{
    MeshTopology topo(5, 5);
    RocoCheckOptions opts = RocoCheckOptions::shipped(RoutingKind::XYYX);
    opts.orderPartition = false;
    opts.mergeTurnClasses = true; // one unrestricted shared class
    ProofResult r = proveRoco(topo, RoutingKind::XYYX, opts);
    EXPECT_FALSE(r.deadlockFree);
    EXPECT_FALSE(r.cycle.empty());
}

TEST(Prover, LargeMeshesAreProvedOnTheSurrogate)
{
    SimConfig cfg;
    cfg.meshWidth = 16;
    cfg.meshHeight = 16;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::Adaptive;
    ProofResult r = prove(cfg);
    EXPECT_TRUE(r.deadlockFree) << r.summary();

    // One past the cap proves the very graph the cap itself builds,
    // and shares its memo key.
    for (RouterArch arch : {RouterArch::Roco, RouterArch::Generic,
                            RouterArch::PathSensitive}) {
        SimConfig over;
        over.meshWidth = kProofSurrogateDim + 1;
        over.meshHeight = kProofSurrogateDim + 1;
        over.arch = arch;
        over.routing = RoutingKind::XYYX;
        SimConfig at = over;
        at.meshWidth = kProofSurrogateDim;
        at.meshHeight = kProofSurrogateDim;
        EXPECT_EQ(proofFingerprint(over, ProofScope::Deadlock),
                  proofFingerprint(at, ProofScope::Deadlock));
        ProofResult big = prove(over);
        ProofResult capped = prove(at);
        EXPECT_EQ(big.graphDigest, capped.graphDigest) << big.summary();
        EXPECT_EQ(big.escapeDigest, capped.escapeDigest) << big.summary();
        EXPECT_EQ(big.summary(), capped.summary());
    }
}

TEST(Prover, SkipCheckEnvironmentVariableIsHonoured)
{
    const char *prev = std::getenv("NOC_SKIP_CHECK");
    std::string saved = prev ? prev : "";

    unsetenv("NOC_SKIP_CHECK");
    EXPECT_TRUE(upfrontChecksEnabled());
    setenv("NOC_SKIP_CHECK", "0", 1);
    EXPECT_TRUE(upfrontChecksEnabled());
    setenv("NOC_SKIP_CHECK", "1", 1);
    EXPECT_FALSE(upfrontChecksEnabled());

    if (prev)
        setenv("NOC_SKIP_CHECK", saved.c_str(), 1);
    else
        unsetenv("NOC_SKIP_CHECK");
}

} // namespace
} // namespace noc::check
