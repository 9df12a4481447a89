#include "check/deadlock.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>

#include "check/cdg.h"
#include "common/flit.h"
#include "common/log.h"
#include "routing/quadrant.h"
#include "routing/routing.h"

namespace noc::check {
namespace {

// Slot numbering, labelling and eligibility rules live in
// check/slot_rules.h, shared with the liveness model checker; CDG
// vertex ids are node * slotsPerNode + slot.

/**
 * Escape-tier canonical pool: strict-quadrant destinations keep their
 * quadrant; on-axis destinations go North/East -> NE, South/West -> SW,
 * which makes NE and SW absorbing and the escape graph acyclic.
 */
Quadrant
canonicalQuadrant(const MeshTopology &topo, NodeId cur, NodeId dst)
{
    Quadrant q0 = quadrantOf(topo, cur, dst, false);
    Quadrant q1 = quadrantOf(topo, cur, dst, true);
    if (q0 == q1)
        return q0;
    Coord c = topo.coord(cur);
    Coord d = topo.coord(dst);
    if (c.x == d.x)
        return d.y > c.y ? Quadrant::NE : Quadrant::SW;
    NOC_ASSERT(c.y == d.y, "quadrant tie off-axis");
    return d.x > c.x ? Quadrant::NE : Quadrant::SW;
}

/** Cross product of two slot masks, as CDG edges: one row OR per bit
 *  of @p u. */
void
addMaskEdges(Cdg &g, int baseU, std::uint64_t u, int baseV, std::uint64_t v)
{
    for (std::uint64_t ub = u; ub; ub &= ub - 1)
        g.addEdges(baseU + __builtin_ctzll(ub), baseV, v);
}

/** Packet flavours to enumerate: XY-YX packets pick an order at inject. */
int
flavorsOf(RoutingKind kind)
{
    return kind == RoutingKind::XYYX ? 2 : 1;
}

/**
 * The slots a request's final hop waits on at its destination under a
 * scheme with protocol edges: the reply's injection slots (strict
 * graph) and their escape-tier subset. Zero masks add no edge.
 */
struct ReplyTarget {
    std::uint64_t strict = 0;
    std::uint64_t escape = 0;

    bool operator==(const ReplyTarget &) const = default;
};

/** Reply-target function of the network-only proofs. */
ReplyTarget
noReply(NodeId, NodeId, bool)
{
    return {};
}

/**
 * Shared reachability walk.  States are (node, arrival port); @p visit
 * receives each reachable state plus the routing candidates there and
 * the reply target of the walk, and decides what edges to record.
 *
 * No routing function reads f.src, so the states reachable toward one
 * destination are walked together for all sources: every source's
 * (src, Local) state seeds one work list under one stamp epoch, and
 * each state is visited once per (destination, flavour) rather than
 * once per (source, destination, flavour).  The only source-dependent
 * input is the final-hop protocol edge, whose targets
 * @p replyTarget(dst, src, yxOrder) depend on where src sits relative
 * to dst: sources with equal targets form one class (at most 8), and
 * each class is walked from its own sources, so every (state, target)
 * pair — hence every edge — of a per-pair walk is visited, and no
 * other.
 *
 * Walk state never includes the destination: per-arch callers decide
 * whether edges terminate there (generic router) or the flit
 * early-ejects (RoCo / PS).
 */
template <typename Target, typename Visit>
void
walkDestinations(const MeshTopology &topo, const RoutingAlgorithm &routing,
                 Target &&replyTarget, Visit &&visit)
{
    NodeId nodes = static_cast<NodeId>(topo.numNodes());
    std::vector<int> stamp(static_cast<std::size_t>(nodes) * kNumPorts, -1);
    std::vector<std::pair<NodeId, Direction>> work;
    std::vector<ReplyTarget> classes;
    std::vector<int> classOf(nodes);
    int epoch = 0;

    for (NodeId dst = 0; dst < nodes; ++dst) {
        for (int fl = 0; fl < flavorsOf(routing.kind()); ++fl) {
            Flit f;
            f.dst = dst;
            f.yxOrder = fl == 1;
            classes.clear();
            for (NodeId src = 0; src < nodes; ++src) {
                if (src == dst)
                    continue;
                ReplyTarget t = replyTarget(dst, src, f.yxOrder);
                auto it = std::find(classes.begin(), classes.end(), t);
                classOf[src] = static_cast<int>(it - classes.begin());
                if (it == classes.end())
                    classes.push_back(t);
            }
            for (int c = 0; c < static_cast<int>(classes.size()); ++c) {
                ++epoch;
                work.clear();
                for (NodeId src = 0; src < nodes; ++src) {
                    if (src == dst || classOf[src] != c)
                        continue;
                    stamp[src * kNumPorts +
                          static_cast<int>(Direction::Local)] = epoch;
                    work.emplace_back(src, Direction::Local);
                }
                while (!work.empty()) {
                    auto [n, arrival] = work.back();
                    work.pop_back();
                    DirectionSet cand = routing.route(n, f);
                    for (Direction out : cand) {
                        NOC_ASSERT(isCardinal(out),
                                   "routing yielded Local before dst");
                        auto nn = topo.neighbor(n, out);
                        NOC_ASSERT(nn.has_value(),
                                   "minimal route crossed the mesh edge");
                        visit(n, arrival, out, *nn, f, classes[c]);
                        if (*nn == dst)
                            continue;
                        std::size_t s =
                            *nn * kNumPorts +
                            static_cast<int>(opposite(out));
                        if (stamp[s] != epoch) {
                            stamp[s] = epoch;
                            work.emplace_back(*nn, opposite(out));
                        }
                    }
                }
            }
        }
    }
}

/**
 * Fills the graph statistics and verdict of @p r from @p strict.  With
 * an @p escape graph, a cyclic strict CDG falls back to the escape
 * tier; `cycle` then keeps the strict cycle for reference.
 */
ProofResult
finish(ProofResult r, const Cdg &strict, const Cdg *escape,
       const MeshTopology &topo, int slotsPerNode,
       const std::function<std::string(int)> &slotName)
{
    r.vertices = static_cast<std::size_t>(strict.numVertices());
    r.edges = strict.numEdges();
    r.graphDigest = strict.digest();
    std::vector<int> cyc = strict.findCycle();
    r.deadlockFree = cyc.empty();
    for (int v : cyc) {
        CycleNode cn;
        cn.node = static_cast<NodeId>(v / slotsPerNode);
        cn.at = topo.coord(cn.node);
        cn.slot = slotName(v % slotsPerNode);
        r.cycle.push_back(std::move(cn));
    }
    if (escape != nullptr) {
        r.escapeDigest = escape->digest();
        if (!r.deadlockFree && escape->findCycle().empty()) {
            r.deadlockFree = true;
            r.viaEscape = true;
        }
    }
    return r;
}

/**
 * RoCo CDG.  A held slot waits on every slot its head may request for
 * a look-ahead candidate at the next router.  Heads early-eject, so
 * the final hop holds no downstream VC: its only edges are the
 * protocol edges from the last-held slot (penultimate router) to the
 * reply target.
 */
template <typename Target>
ProofResult
proveRocoGraph(const MeshTopology &topo, const RoutingAlgorithm &routing,
               const RocoCheckOptions &opts, Target &&replyTarget)
{
    RoutingKind kind = routing.kind();
    // rocoSlotMask() tabulated over (flavour, arrival, cardinal output).
    std::uint64_t masks[2][kNumPorts][kNumPorts] = {};
    for (int yx = 0; yx < 2; ++yx)
        for (int in = 0; in < kNumPorts; ++in)
            for (int out = 0; out < kNumPorts; ++out)
                if (isCardinal(static_cast<Direction>(out)))
                    masks[yx][in][out] = rocoSlotMask(
                        opts, kind, static_cast<Direction>(in),
                        static_cast<Direction>(out), yx == 1);
    auto slotMask = [&](Direction in, Direction out, bool yx) {
        return masks[yx][static_cast<int>(in)][static_cast<int>(out)];
    };
    Cdg graph(topo.numNodes() * kRocoSlots);
    walkDestinations(
        topo, routing, replyTarget,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const ReplyTarget &reply) {
            std::uint64_t u = slotMask(arrival, out, f.yxOrder);
            if (!u)
                return;
            if (nn == f.dst) {
                addMaskEdges(graph, n * kRocoSlots, u, nn * kRocoSlots,
                             reply.strict);
                return;
            }
            for (Direction d2 : routing.route(nn, f)) {
                addMaskEdges(graph, n * kRocoSlots, u, nn * kRocoSlots,
                             slotMask(opposite(out), d2, f.yxOrder));
            }
        });
    ProofResult r;
    r.arch = RouterArch::Roco;
    r.routing = kind;
    return finish(std::move(r), graph, nullptr, topo, kRocoSlots,
                  [&](int s) { return rocoSlotName(opts.table, s); });
}

/**
 * Generic-router CDG.  Flits buffer at the destination before the
 * Local output drains them, so edges into dst exist and dst slots have
 * no network out-edges (infinite Local sink); the protocol edge runs
 * from the arrival slot at dst to the reply target there.
 */
template <typename Target>
ProofResult
proveGenericGraph(const MeshTopology &topo, const RoutingAlgorithm &routing,
                  int vcsPerPort, bool classPartition, Target &&replyTarget)
{
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumPorts <= 64,
               "generic VC count out of prover range");
    RoutingKind kind = routing.kind();
    int slots = kNumPorts * vcsPerPort;
    Cdg graph(topo.numNodes() * slots);
    walkDestinations(
        topo, routing, replyTarget,
        [&](NodeId n, Direction arrival, Direction out, NodeId nn,
            const Flit &f, const ReplyTarget &reply) {
            std::uint64_t u =
                genericSvcSlotMask(kind, static_cast<int>(arrival),
                                   vcsPerPort, f.yxOrder, classPartition);
            std::uint64_t v =
                genericSvcSlotMask(kind, static_cast<int>(opposite(out)),
                                   vcsPerPort, f.yxOrder, classPartition);
            addMaskEdges(graph, n * slots, u, nn * slots, v);
            if (nn == f.dst)
                addMaskEdges(graph, nn * slots, v, nn * slots,
                             reply.strict);
        });
    ProofResult r;
    r.arch = RouterArch::Generic;
    r.routing = kind;
    return finish(std::move(r), graph, nullptr, topo, slots,
                  [=](int s) { return genericSlotName(vcsPerPort, s); });
}

/**
 * Path-Sensitive CDG, strict and escape.  Pools are
 * arrival-independent; a packet holding a pool that serves its output
 * requests every slot of both downstream pools (downstreamSlots()),
 * and the escape tier narrows the request to the canonical pool, which
 * is always a subset of what the router actually waits on.  Heads
 * early-eject, so the final hop adds only the reply target.
 */
template <typename Target>
ProofResult
provePsGraph(const MeshTopology &topo, const RoutingAlgorithm &routing,
             int vcsPerPort, Target &&replyTarget)
{
    NOC_ASSERT(vcsPerPort >= 1 && vcsPerPort * kNumQuadrants <= 64,
               "PS VC count out of prover range");
    int slots = kNumQuadrants * vcsPerPort;
    Cdg strict(topo.numNodes() * slots);
    Cdg escape(topo.numNodes() * slots);
    walkDestinations(
        topo, routing, replyTarget,
        [&](NodeId n, Direction, Direction out, NodeId nn, const Flit &f,
            const ReplyTarget &reply) {
            std::uint64_t vStrict = reply.strict;
            std::uint64_t vEscape = reply.escape;
            if (nn != f.dst) {
                Quadrant d0 = quadrantOf(topo, nn, f.dst, false);
                Quadrant d1 = quadrantOf(topo, nn, f.dst, true);
                vStrict =
                    psPoolMask(d0, vcsPerPort) | psPoolMask(d1, vcsPerPort);
                vEscape = psPoolMask(canonicalQuadrant(topo, nn, f.dst),
                                     vcsPerPort);
            }
            Quadrant q0 = quadrantOf(topo, n, f.dst, false);
            Quadrant q1 = quadrantOf(topo, n, f.dst, true);
            const Quadrant pools[2] = {q0, q1};
            int numPools = q0 == q1 ? 1 : 2;
            for (int i = 0; i < numPools; ++i) {
                Quadrant q = pools[i];
                if (!quadrantServes(q, out))
                    continue;
                std::uint64_t u = psPoolMask(q, vcsPerPort);
                addMaskEdges(strict, n * slots, u, nn * slots, vStrict);
                addMaskEdges(escape, n * slots, u, nn * slots, vEscape);
            }
        });
    ProofResult r;
    r.arch = RouterArch::PathSensitive;
    r.routing = routing.kind();
    return finish(std::move(r), strict, &escape, topo, slots,
                  [=](int s) { return psSlotName(vcsPerPort, s); });
}

/** The mesh a config is proved on: itself, capped at the surrogate. */
MeshTopology
proofTopology(const SimConfig &cfg)
{
    return MeshTopology(std::min(cfg.meshWidth, kProofSurrogateDim),
                        std::min(cfg.meshHeight, kProofSurrogateDim));
}

} // namespace

std::string
CycleNode::label() const
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "n%02u (%d,%d) %s",
                  static_cast<unsigned>(node), at.x, at.y, slot.c_str());
    return buf;
}

std::string
ProofResult::summary() const
{
    char buf[192];
    if (deadlockFree && !viaEscape) {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: deadlock-free (strict CDG acyclic, "
                      "%zu vertices, %zu edges)",
                      toString(arch), toString(routing), vertices, edges);
    } else if (deadlockFree) {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: deadlock-free via escape path sets "
                      "(strict CDG cyclic, %zu vertices, %zu edges)",
                      toString(arch), toString(routing), vertices, edges);
    } else {
        std::snprintf(buf, sizeof buf,
                      "%s x %s: DEADLOCK POSSIBLE — %zu-slot dependency "
                      "cycle in the CDG",
                      toString(arch), toString(routing), cycle.size());
    }
    std::string out = buf;
    if (!scheme.empty()) {
        out += " [protocol: ";
        out += scheme;
        out += ']';
    }
    return out;
}

std::string
ProofResult::renderCycle() const
{
    if (cycle.empty())
        return {};
    std::string out = "counterexample dependency cycle (";
    out += std::to_string(cycle.size());
    out += cycle.size() == 1 ? " slot, self-dependency):\n"
                             : " slots):\n";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        out += i == 0 ? "     " : "  -> ";
        out += cycle[i].label();
        out += '\n';
    }
    out += "  -> back to ";
    out += cycle.front().label();
    out += '\n';
    return out;
}

ProofResult
proveRoco(const MeshTopology &topo, RoutingKind kind,
          const RocoCheckOptions &opts)
{
    auto routing = makeRouting(kind, topo);
    return proveRocoGraph(topo, *routing, opts, noReply);
}

ProofResult
proveGeneric(const MeshTopology &topo, RoutingKind kind, int vcsPerPort)
{
    auto routing = makeRouting(kind, topo);
    return proveGenericGraph(topo, *routing, vcsPerPort, false, noReply);
}

ProofResult
provePathSensitive(const MeshTopology &topo, RoutingKind kind,
                   int vcsPerPort)
{
    auto routing = makeRouting(kind, topo);
    return provePsGraph(topo, *routing, vcsPerPort, noReply);
}

// The service proofs walk both message classes at once: network edges
// depend on the flavour, not the class, and a request flavour's walk
// adds the protocol edge through its reply target.  Under the class
// partition requests are pinned to XY and replies to YX, so YX walks
// carry no protocol edges; otherwise every flavour is a request's.

ProofResult
proveServiceGeneric(const MeshTopology &topo, RoutingKind kind,
                    int vcsPerPort, svc::AvoidanceScheme scheme)
{
    bool partition = scheme == svc::AvoidanceScheme::ClassPartition;
    bool protocol = scheme != svc::AvoidanceScheme::EndpointReserve;
    // Reply-injection slots are route-independent for the generic
    // router: the Local VCs of the reply class's allowed flavours.
    ReplyTarget replyInj;
    for (int rf = 0; rf < flavorsOf(kind); ++rf) {
        bool ryx = rf == 1;
        if (partition && !ryx)
            continue;
        replyInj.strict |=
            genericSvcSlotMask(kind, static_cast<int>(Direction::Local),
                               vcsPerPort, ryx, partition);
    }
    auto routing = makeRouting(kind, topo);
    ProofResult r = proveGenericGraph(
        topo, *routing, vcsPerPort, partition,
        [&](NodeId, NodeId, bool yx) {
            return protocol && !(partition && yx) ? replyInj
                                                  : ReplyTarget{};
        });
    r.scheme = svc::toString(scheme);
    return r;
}

ProofResult
proveServiceRoco(const MeshTopology &topo, RoutingKind kind,
                 const RocoCheckOptions &opts, svc::AvoidanceScheme scheme)
{
    bool partition = scheme == svc::AvoidanceScheme::ClassPartition;
    bool protocol = scheme != svc::AvoidanceScheme::EndpointReserve;
    auto routing = makeRouting(kind, topo);
    // Reply injection at a RoCo node is route-dependent: the injection
    // class (InjXy / InjYx) follows the module serving the reply's
    // first hop, so the mask unions over the reply's route candidates.
    auto replyInj = [&](NodeId server, NodeId requester, bool yx) {
        ReplyTarget t;
        if (!protocol || (partition && yx))
            return t;
        for (int rf = 0; rf < flavorsOf(kind); ++rf) {
            bool ryx = rf == 1;
            if (partition && !ryx)
                continue;
            Flit rp;
            rp.src = server;
            rp.dst = requester;
            rp.yxOrder = ryx;
            for (Direction d : routing->route(server, rp))
                t.strict |=
                    rocoSlotMask(opts, kind, Direction::Local, d, ryx);
        }
        return t;
    };
    ProofResult r = proveRocoGraph(topo, *routing, opts, replyInj);
    r.scheme = svc::toString(scheme);
    return r;
}

ProofResult
proveServicePathSensitive(const MeshTopology &topo, RoutingKind kind,
                          int vcsPerPort, svc::AvoidanceScheme scheme)
{
    // EndpointReserve has no protocol edges and the pools are
    // class-blind, so its proof is exactly the network-layer one.
    // SharedPool (and a forced ClassPartition, which the quadrant pools
    // cannot express) shares every pool between both classes, protocol
    // edges included in the strict and the escape graph alike: the
    // reply (dst -> src) injects into its own destination pools.
    bool protocol = scheme != svc::AvoidanceScheme::EndpointReserve;
    auto routing = makeRouting(kind, topo);
    ProofResult r = provePsGraph(
        topo, *routing, vcsPerPort,
        [&](NodeId server, NodeId requester, bool) {
            ReplyTarget t;
            if (!protocol)
                return t;
            Quadrant r0 = quadrantOf(topo, server, requester, false);
            Quadrant r1 = quadrantOf(topo, server, requester, true);
            t.strict =
                psPoolMask(r0, vcsPerPort) | psPoolMask(r1, vcsPerPort);
            t.escape = psPoolMask(
                canonicalQuadrant(topo, server, requester), vcsPerPort);
            return t;
        });
    r.scheme = svc::toString(scheme);
    return r;
}

ProofResult
proveService(const SimConfig &cfg)
{
    MeshTopology topo = proofTopology(cfg);
    svc::AvoidanceScheme scheme = svc::resolveScheme(cfg);
    switch (cfg.arch) {
      case RouterArch::Roco:
        return proveServiceRoco(topo, cfg.routing,
                                RocoCheckOptions::shipped(cfg.routing),
                                scheme);
      case RouterArch::Generic:
        return proveServiceGeneric(topo, cfg.routing, cfg.vcsPerPort,
                                   scheme);
      case RouterArch::PathSensitive:
        return proveServicePathSensitive(topo, cfg.routing, cfg.vcsPerPort,
                                         scheme);
    }
    fatal("unknown router architecture in service deadlock prover");
}

ProofResult
prove(const SimConfig &cfg)
{
    MeshTopology topo = proofTopology(cfg);
    switch (cfg.arch) {
      case RouterArch::Roco:
        return proveRoco(topo, cfg.routing,
                         RocoCheckOptions::shipped(cfg.routing));
      case RouterArch::Generic:
        return proveGeneric(topo, cfg.routing, cfg.vcsPerPort);
      case RouterArch::PathSensitive:
        return provePathSensitive(topo, cfg.routing, cfg.vcsPerPort);
    }
    fatal("unknown router architecture in deadlock prover");
}

bool
upfrontChecksEnabled()
{
    const char *v = std::getenv("NOC_SKIP_CHECK");
    if (v == nullptr || v[0] == '\0' || std::strcmp(v, "0") == 0)
        return true;
    return false;
}

namespace {
std::atomic<std::uint64_t> gDeadlockProofs{0};
} // namespace

std::uint64_t
proofFingerprint(const SimConfig &cfg, ProofScope scope)
{
    std::uint64_t key = (static_cast<std::uint64_t>(cfg.arch) << 56) |
                        (static_cast<std::uint64_t>(cfg.routing) << 48);
    if (scope == ProofScope::Liveness) {
        // The scenario matrix and arbiter obligations depend on the
        // (arch, routing) pair only — rules are translation-invariant
        // and mesh/VC-independent (see model/liveness.h).
        return key;
    }
    int w = std::min(cfg.meshWidth, kProofSurrogateDim);
    int h = std::min(cfg.meshHeight, kProofSurrogateDim);
    key |= (static_cast<std::uint64_t>(w) << 32) |
           (static_cast<std::uint64_t>(h) << 16) |
           static_cast<std::uint64_t>(cfg.vcsPerPort);
    if (cfg.svc.enabled) {
        // Service mode proves a different (augmented) graph per
        // avoidance scheme; keep those proofs distinct in the memo.
        key |= 1ull << 36;
        key |= static_cast<std::uint64_t>(svc::resolveScheme(cfg)) << 37;
    }
    return key;
}

std::uint64_t
deadlockProofsPerformed()
{
    return gDeadlockProofs.load(std::memory_order_relaxed);
}

void
validateConfigOrDie(const SimConfig &cfg)
{
    if (!upfrontChecksEnabled())
        return;

    static std::mutex mu;
    static std::set<std::uint64_t> proven;
    std::uint64_t key = proofFingerprint(cfg, ProofScope::Deadlock);

    std::lock_guard<std::mutex> lock(mu);
    if (proven.contains(key))
        return;
    ProofResult r = cfg.svc.enabled ? proveService(cfg) : prove(cfg);
    if (!r.deadlockFree) {
        std::fprintf(stderr, "%s\n%s", r.summary().c_str(),
                     r.renderCycle().c_str());
        fatal("configuration admits deadlock "
              "(set NOC_SKIP_CHECK=1 to run anyway)");
    }
    gDeadlockProofs.fetch_add(1, std::memory_order_relaxed);
    proven.insert(key);
}

} // namespace noc::check
