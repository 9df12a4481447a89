#include "router/roco/roco_router.h"

#include <bit>

namespace noc {

RocoRouter::RocoRouter(NodeId id, const SimConfig &cfg,
                       const MeshTopology &topo,
                       const RoutingAlgorithm &routing,
                       const FaultMap *faults)
    : Router(id, cfg, topo, routing, faults),
      vcCfg_(RocoVcConfig::forRouting(routing.kind())),
      xbar_{Crossbar(2, 2), Crossbar(2, 2)},
      sa_{MirrorAllocator(cfg.vcsPerPort),
          MirrorAllocator(cfg.vcsPerPort)}
{
    NOC_ASSERT(numVcs_ == kVcsPerSet,
               "RoCo path sets carry exactly 3 VCs (Table 1)");
    // Output slot namespace mirrors the downstream input VC pool:
    // (module * ports + port) * v + vc, i.e. 12 slots per direction.
    const int nVc = 2 * kPortsPerModule * numVcs_;
    initOutputVcs(kNumCardinal, nVc, cfg.bufferDepthModular);
    auto bit = [](Direction d) { return 1u << static_cast<int>(d); };
    initInputVcs(nVc, cfg.bufferDepthModular, kPortsPerModule * numVcs_,
                 false,
                 {static_cast<std::uint8_t>(bit(Direction::East) |
                                            bit(Direction::West)),
                  static_cast<std::uint8_t>(bit(Direction::North) |
                                            bit(Direction::South))});
}

int
RocoRouter::moduleOccupancy(Module m) const
{
    int n = 0;
    for (int p = 0; p < kPortsPerModule; ++p) {
        for (int v = 0; v < numVcs_; ++v)
            n += in_[static_cast<size_t>(vcIndex(m, p, v))].buf.occupancy();
    }
    return n;
}

int
RocoRouter::outIndex(Direction d)
{
    switch (d) {
      case Direction::East: return 0;
      case Direction::West: return 1;
      case Direction::North: return 0;
      case Direction::South: return 1;
      default:
        NOC_ASSERT(false, "module output for non-cardinal direction");
        return -1;
    }
}

void
RocoRouter::step(Cycle now)
{
    // RoCo has no whole-node failure mode of its own, but keep the
    // check so externally forced nodeDead states behave uniformly.
    if (nodeDead())
        return;

    xbar_[0].beginCycle();
    xbar_[1].beginCycle();

    receiveCredits(now);
    receiveFlits(now);
    pullInjection(now);
    drainDropped(now);
    allocateVcs(now);
    allocateSwitch(now);
}

bool
RocoRouter::injectionBlocked(const Flit &head) const
{
    if (!faults_)
        return false;
    // Statically blocked when every candidate direction's module is
    // dead or has no surviving injection VC.
    for (Direction d : routing_.route(id(), head)) {
        if (!isCardinal(d) || !hasPort(d))
            continue;
        Module dm = moduleOf(d);
        if (faultState().isModuleDead(dm))
            continue;
        VcClass want =
            dm == Module::Row ? VcClass::InjXy : VcClass::InjYx;
        for (int p = 0; p < kPortsPerModule; ++p) {
            for (int v = 0; v < numVcs_; ++v) {
                if (vcCfg_.at(dm, p, v) == want &&
                    !faultState().isVcDead(dm, p, v)) {
                    return false;
                }
            }
        }
    }
    return true;
}

void
RocoRouter::pullInjection(Cycle now)
{
    if (!nicHasPending())
        return;
    const Flit &front = nicPeekPending();
    const bool head = isHead(front.type);
    if (dropAtSource(head && (destinationDead(front) ||
                              injectionBlocked(front)),
                     now)) {
        return;
    }
    if (!head) {
        injectFollower(front.packetId, now);
        return;
    }
    // Choose the first direction whose module is alive and has a free
    // injection VC; candidates come in routing preference order
    // (adaptive lists the X option first).
    for (Direction d : routing_.route(id(), front)) {
        if (!isCardinal(d) || !hasPort(d))
            continue;
        Module dm = moduleOf(d);
        if (faultState().isModuleDead(dm))
            continue;
        VcClass want = dm == Module::Row ? VcClass::InjXy : VcClass::InjYx;
        for (int p = 0; p < kPortsPerModule; ++p) {
            for (int v = 0; v < numVcs_; ++v) {
                const int i = vcIndex(dm, p, v);
                if (vcCfg_.at(dm, p, v) == want &&
                    !faultState().isVcDead(dm, p, v) &&
                    in_[static_cast<size_t>(i)].ctl.empty()) {
                    injectInto(i, d, now);
                    return;
                }
            }
        }
    }
    // no free injection VC this cycle
}

std::uint64_t
RocoRouter::eligibleSlots(Direction outDir, Direction nextLa,
                          const Flit &head) const
{
    Direction arrival = opposite(outDir);
    Module m2 = moduleForOutput(nextLa);
    // Guided queuing steers a link's flits to its canonical module
    // port; pooling across ports would let opposite directions share
    // buffers and reintroduce head-on deadlock.
    int p2 = portSideFor(m2, arrival);
    VcClass cls = classifyFlit(arrival, nextLa);

    auto next = topo_.neighbor(id(), outDir);
    NOC_ASSERT(next.has_value(), "output across the mesh edge");
    const NodeFaultState *down =
        faults_ ? &faults_->state(*next) : nullptr;
    if (down && (down->nodeDead ||
                 down->moduleDead[static_cast<int>(m2)])) {
        return 0; // never allocate into a dead node/module
    }

    // XY-YX order partition: txy/tyx classes are order-exclusive by
    // construction; where Table 1 provides two dx/dy slots, one is set
    // aside for the minority order (the paper's extra VCs).
    bool partition = routingKind() == RoutingKind::XYYX &&
                     (cls == VcClass::Dx || cls == VcClass::Dy) &&
                     vcCfg_.countClass(m2, p2, cls) >= 2;
    bool minority = cls == VcClass::Dx ? head.yxOrder : !head.yxOrder;

    std::uint64_t mask = 0;
    int seen = 0;
    for (int v = 0; v < numVcs_; ++v) {
        if (vcCfg_.at(m2, p2, v) != cls)
            continue;
        int ordinal = seen++;
        if (partition) {
            bool lastSlot =
                ordinal == vcCfg_.countClass(m2, p2, cls) - 1;
            if (minority != lastSlot)
                continue;
        }
        if (down && down->isVcDead(m2, p2, v))
            continue;
        mask |= 1ull << vcIndex(m2, p2, v);
    }
    return mask;
}

void
RocoRouter::allocateVcs(Cycle now)
{
    // Separable VA over the module's smaller arbiters (Figure 2b):
    // each waiting head picks its best eligible downstream slot, then
    // each contested (output, slot) pair arbitrates.
    const bool adaptive = routingKind() == RoutingKind::Adaptive;

    for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
        const int i = std::countr_zero(scan);
        InputVc &ivc = in_[static_cast<size_t>(i)];
        if (!ivc.headWaiting(now))
            continue;
        PacketCtl &ctl = ivc.ctl.front();
        if (faultState().isModuleDead(moduleOf(ctl.outDir)))
            continue; // dead module: VCs frozen
        const Flit &head = ivc.buf.front();

        ++act_.vaLocalArbs;

        // Stage 1: pick the (look-ahead direction, slot) pair with the
        // most downstream credits.  Under adaptive routing the
        // look-ahead choice is re-scored on every attempt from the
        // credit state the router already tracks — this is where the
        // RoCo design's adaptivity actually bites.
        DirectionSet laCands;
        if (adaptive)
            laCands = lookaheadCandidates(ctl.outDir, head);
        else
            laCands.push(ctl.nextLa);
        if (laCands.empty()) {
            discardPacket(ctl);
            continue;
        }

        int best = -1;
        int bestCredits = -1;
        Direction bestLa = ctl.nextLa;
        for (Direction la : laCands) {
            if (pickReservableSlot(ctl.outDir,
                                   eligibleSlots(ctl.outDir, la, head),
                                   ctl.owner, best, bestCredits)) {
                bestLa = la;
            }
        }
        if (best < 0) {
            // Distinguish transient contention from static blockage:
            // a head with no *statically* eligible slot for any
            // look-ahead candidate can never progress.
            std::uint64_t statically = 0;
            for (Direction la : laCands)
                statically |= eligibleSlots(ctl.outDir, la, head);
            if (statically == 0)
                discardPacket(ctl);
            continue;
        }
        requestVc(i, ctl.outDir, best, bestLa);
    }

    // The VA arbiters that actually fired cannot be borrowed by a
    // degraded SA this cycle (Figure 7).
    const unsigned granted = grantVcs(now);
    auto fired = [granted](Direction a, Direction b) {
        return ((granted >> static_cast<int>(a)) |
                (granted >> static_cast<int>(b))) & 1u;
    };
    vaBusy_[static_cast<int>(Module::Row)] =
        fired(Direction::East, Direction::West);
    vaBusy_[static_cast<int>(Module::Column)] =
        fired(Direction::North, Direction::South);
}

void
RocoRouter::allocateSwitch(Cycle now)
{
    for (int mi = 0; mi < 2; ++mi) {
        Module m = static_cast<Module>(mi);
        const NodeFaultState &fs = faultState();
        if (fs.isModuleDead(m))
            continue;

        // Only VCs holding a packet can request; walk the module's
        // slice of the ctl-occupancy mask.
        const int moduleSlots = kPortsPerModule * numVcs_;
        std::uint64_t mScan = (ctlMask_ >> (mi * moduleSlots)) &
                              ((1ull << moduleSlots) - 1);

        std::uint64_t reqs[2][2] = {{0, 0}, {0, 0}};
        std::uint64_t specReqs[2][2] = {{0, 0}, {0, 0}};
        bool any = false;
        for (; mScan; mScan &= mScan - 1) {
            const int local = std::countr_zero(mScan);
            const int p = local / numVcs_;
            const int v = local % numVcs_;
            const int i = vcIndex(m, p, v);
            const SwitchReq req = switchRequest(i, now);
            if (req == SwitchReq::None)
                continue;
            const int out =
                outIndex(in_[static_cast<size_t>(i)].ctl.front().outDir);
            if (req == SwitchReq::Speculative)
                specReqs[p][out] |= 1ull << v;
            else
                reqs[p][out] |= 1ull << v;
            any = true;
        }
        if (!any)
            continue; // allocate() is a stateless no-op with no requests

        // SA fault: grants ride the VA's idle arbiters (Figure 7) —
        // one grant at most, and none while the VA is busy.
        int maxGrants = 2;
        if (fs.saDegraded[mi])
            maxGrants = vaBusy_[mi] ? 0 : 1;

        MirrorAllocator::Grant grants[2];
        MirrorAllocator::ArbOps ops;
        int n = sa_[mi].allocate(reqs, specReqs, maxGrants, grants, ops);
        act_.saLocalArbs += ops.local;
        act_.saGlobalArbs += ops.global;
        act_.saMirrorTies += ops.ties;

        // Contention probes: a port with requests either sends or is
        // blocked this cycle.
        for (int p = 0; p < kPortsPerModule; ++p) {
            if ((reqs[p][0] | reqs[p][1] | specReqs[p][0] |
                 specReqs[p][1]) == 0)
                continue;
            bool granted = false;
            for (int g = 0; g < n; ++g)
                granted = granted || grants[g].port == p;
            noteContention(m == Module::Row, !granted);
        }

        for (int g = 0; g < n; ++g) {
            const int i = vcIndex(m, grants[g].port, grants[g].vc);
            NOC_ASSERT(outIndex(in_[static_cast<size_t>(i)].ctl.front()
                                    .outDir) == grants[g].out,
                       "grant/output mismatch");
            xbar_[mi].traverse(grants[g].port, grants[g].out);
            traverse(i, now);
        }
    }
}

} // namespace noc
