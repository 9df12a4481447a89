/**
 * @file
 * Deadlock-prover graph-identity golden test.
 *
 * Proves a fixed matrix of configurations and compares, byte for byte,
 * what each proof produced against the committed golden file: the
 * one-line summary (verdict, vertex and edge counts), the digest of
 * every built graph's adjacency words (strict and escape) and the
 * rendered counterexample cycle.  The matrix covers
 *  - the shipped arch x routing matrix at 2x2, 3x5, 8x8 and 12x12 (the
 *    surrogate size every larger mesh is proved on), plus the generic
 *    and Path-Sensitive organisations at 2 and 4 VCs per port;
 *  - every service avoidance scheme for every arch x routing pair,
 *    the rejected shared-pool and forced-RoCo-partition schemes
 *    included;
 *  - the deliberately broken RoCo tables of `noc_check --broken`.
 *
 * Any change to how the channel dependency graphs are built that adds,
 * drops or moves a single edge fails here.  On a mismatch the test
 * names the first differing line and writes the actual output next to
 * the test binary (golden_proofs.actual.txt).
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/deadlock.h"

namespace noc::check {
namespace {

constexpr RoutingKind kRoutings[] = {RoutingKind::XY, RoutingKind::XYYX,
                                     RoutingKind::Adaptive};
constexpr svc::AvoidanceScheme kSchemes[] = {
    svc::AvoidanceScheme::ClassPartition,
    svc::AvoidanceScheme::EndpointReserve,
    svc::AvoidanceScheme::SharedPool};
struct Dims {
    int w;
    int h;
};
constexpr Dims kMeshes[] = {{2, 2}, {3, 5}, {8, 8}, {12, 12}};

void
appendProof(std::string &out, const std::string &label,
            const ProofResult &r)
{
    char digests[128];
    std::snprintf(digests, sizeof digests,
                  "graph %zu vertices %zu edges strict %016" PRIx64
                  " escape %016" PRIx64 "\n",
                  r.vertices, r.edges, r.graphDigest, r.escapeDigest);
    out += "proof " + label + '\n';
    out += r.summary() + '\n';
    out += digests;
    out += r.renderCycle();
}

std::string
meshLabel(const MeshTopology &topo)
{
    return std::to_string(topo.width()) + 'x' +
           std::to_string(topo.height());
}

std::string
runMatrix()
{
    std::string out;
    for (Dims d : kMeshes) {
        MeshTopology topo(d.w, d.h);
        std::string mesh = meshLabel(topo);
        for (RoutingKind kind : kRoutings) {
            std::string tag = mesh + ' ' + toString(kind);
            appendProof(out, tag + " roco shipped",
                        proveRoco(topo, kind,
                                  RocoCheckOptions::shipped(kind)));
            appendProof(out, tag + " generic vcs=3",
                        proveGeneric(topo, kind, 3));
            appendProof(out, tag + " ps vcs=3",
                        provePathSensitive(topo, kind, 3));
            for (svc::AvoidanceScheme s : kSchemes) {
                std::string svcTag =
                    tag + " service " + svc::toString(s);
                appendProof(out, svcTag + " roco",
                            proveServiceRoco(
                                topo, kind,
                                RocoCheckOptions::shipped(kind), s));
                appendProof(out, svcTag + " generic vcs=3",
                            proveServiceGeneric(topo, kind, 3, s));
                appendProof(out, svcTag + " ps vcs=3",
                            proveServicePathSensitive(topo, kind, 3, s));
            }
        }
        RocoCheckOptions noPartition =
            RocoCheckOptions::shipped(RoutingKind::XYYX);
        noPartition.orderPartition = false;
        RocoCheckOptions merged = noPartition;
        merged.mergeTurnClasses = true;
        appendProof(out, mesh + " xyyx roco broken no-order-partition",
                    proveRoco(topo, RoutingKind::XYYX, noPartition));
        appendProof(out, mesh + " xyyx roco broken merged-turn-classes",
                    proveRoco(topo, RoutingKind::XYYX, merged));
    }
    MeshTopology small(3, 5);
    for (RoutingKind kind : kRoutings) {
        for (int vcs : {2, 4}) {
            std::string tag = meshLabel(small) + ' ' + toString(kind) +
                              " vcs=" + std::to_string(vcs);
            appendProof(out, tag + " generic",
                        proveGeneric(small, kind, vcs));
            appendProof(out, tag + " ps",
                        provePathSensitive(small, kind, vcs));
            appendProof(out, tag + " service shared-pool generic",
                        proveServiceGeneric(
                            small, kind, vcs,
                            svc::AvoidanceScheme::SharedPool));
            appendProof(out, tag + " service shared-pool ps",
                        proveServicePathSensitive(
                            small, kind, vcs,
                            svc::AvoidanceScheme::SharedPool));
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

TEST(GoldenProofTest, GraphsMatchTheGoldenFile)
{
    const std::string actual = runMatrix();
    std::ifstream in(GOLDEN_PROOF_FILE);
    ASSERT_TRUE(in.good()) << "cannot read " << GOLDEN_PROOF_FILE;
    std::ostringstream golden;
    golden << in.rdbuf();
    if (actual == golden.str())
        return;

    const std::string actualPath =
        std::string(GOLDEN_PROOF_ACTUAL_DIR) + "/golden_proofs.actual.txt";
    std::ofstream(actualPath) << actual;

    const std::vector<std::string> want = splitLines(golden.str());
    const std::vector<std::string> got = splitLines(actual);
    std::size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i])
        ++i;
    std::string proof = "(before the first proof)";
    for (std::size_t j = 0; j < i && j < got.size(); ++j) {
        if (got[j].rfind("proof ", 0) == 0)
            proof = got[j];
    }
    ADD_FAILURE() << GOLDEN_PROOF_FILE << ": first difference at line "
                  << i + 1 << " in " << proof << "\n  golden: "
                  << (i < want.size() ? want[i] : "<end of file>")
                  << "\n  actual: "
                  << (i < got.size() ? got[i] : "<end of output>")
                  << "\nactual output written to " << actualPath;
}

} // namespace
} // namespace noc::check
