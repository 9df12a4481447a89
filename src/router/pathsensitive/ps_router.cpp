#include "router/pathsensitive/ps_router.h"

#include <bit>

namespace noc {

PathSensitiveRouter::PathSensitiveRouter(NodeId id, const SimConfig &cfg,
                                         const MeshTopology &topo,
                                         const RoutingAlgorithm &routing,
                                         const FaultMap *faults)
    : Router(id, cfg, topo, routing, faults),
      xbar_(kNumQuadrants, kNumCardinal)
{
    NOC_ASSERT(numVcs_ == 3,
               "path sets hold one VC per previous direction (3)");
    const int nVc = kNumQuadrants * numVcs_;
    initOutputVcs(kNumCardinal, nVc, cfg.bufferDepthModular);
    std::vector<std::uint8_t> served;
    for (int q = 0; q < kNumQuadrants; ++q) {
        const QuadrantPorts p = portsOf(static_cast<Quadrant>(q));
        served.push_back(static_cast<std::uint8_t>(
            (1u << static_cast<int>(p.a)) | (1u << static_cast<int>(p.b))));
    }
    initInputVcs(nVc, cfg.bufferDepthModular, numVcs_, false,
                 std::move(served));
    for (int i = 0; i < kNumQuadrants; ++i)
        saSet_.emplace_back(numVcs_);
    for (int i = 0; i < kNumCardinal; ++i)
        saOut_.emplace_back(kNumQuadrants);
}

int
PathSensitiveRouter::quadrantOccupancy(Quadrant q) const
{
    int n = 0;
    for (int v = 0; v < numVcs_; ++v) {
        n += in_[static_cast<size_t>(static_cast<int>(q) * numVcs_ + v)]
                 .buf.occupancy();
    }
    return n;
}

void
PathSensitiveRouter::step(Cycle now)
{
    if (nodeDead())
        return;

    xbar_.beginCycle();
    receiveCredits(now);
    receiveFlits(now);
    pullInjection(now);
    drainDropped(now);
    allocateVcs(now);
    allocateSwitch(now);
}

void
PathSensitiveRouter::pullInjection(Cycle now)
{
    if (!nicHasPending())
        return;
    const Flit &front = nicPeekPending();
    const bool head = isHead(front.type);

    bool blocked = false;
    if (head && faults_) {
        blocked = destinationDead(front);
        if (!blocked) {
            blocked = true;
            for (Direction d : routing_.route(id(), front)) {
                if (!isCardinal(d) || !hasPort(d))
                    continue;
                auto nb = topo_.neighbor(id(), d);
                if (nb && !faults_->state(*nb).nodeDead)
                    blocked = false;
            }
        }
    }
    if (dropAtSource(blocked, now))
        return;
    if (!head) {
        injectFollower(front.packetId, now);
        return;
    }

    Quadrant q =
        quadrantOf(topo_, id(), front.dst, (front.packetId & 1) != 0);
    // Claim a free VC from the quadrant pool (local demux reaches the
    // whole path set); quietly fails when the set is full. Reuse a
    // reservation this head already holds from a stalled earlier
    // attempt before claiming a new slot.
    int target = -1;
    int fs = 0;
    for (int v = numVcs_ - 1; v >= 0 && target < 0; --v) {
        int idx = static_cast<int>(q) * numVcs_ + v;
        const InputVc &ivc = in_[static_cast<size_t>(idx)];
        if (ivc.reservedFrom == Direction::Local &&
            ivc.reservedPacket == front.packetId) {
            target = idx;
        }
    }
    for (int v = numVcs_ - 1; v >= 0 && target < 0; --v) {
        int idx = static_cast<int>(q) * numVcs_ + v;
        const InputVc &ivc = in_[static_cast<size_t>(idx)];
        if (ivc.reservedFrom == Direction::Invalid &&
            reserveInputVc(idx, Direction::Local, front.packetId, true,
                           fs)) {
            target = idx;
        }
    }
    if (target < 0)
        return;
    // Choose the output among the quadrant's ports, preferring the
    // routing function's order.
    Direction outDir = Direction::Invalid;
    for (Direction d : routing_.route(id(), front)) {
        if (isCardinal(d) && hasPort(d) && quadrantServes(q, d)) {
            outDir = d;
            break;
        }
    }
    if (outDir == Direction::Invalid)
        return;
    reserveInputVc(target, Direction::Local, front.packetId, false, fs);
    injectInto(target, outDir, now);
}

std::uint64_t
PathSensitiveRouter::downstreamSlots(Direction outDir,
                                     const Flit &head) const
{
    auto next = topo_.neighbor(id(), outDir);
    NOC_ASSERT(next.has_value(), "output across the mesh edge");
    if (faults_ && faults_->state(*next).nodeDead)
        return 0;
    Quadrant q =
        quadrantOf(topo_, *next, head.dst, (head.packetId & 1) != 0);
    Quadrant alt =
        quadrantOf(topo_, *next, head.dst, (head.packetId & 1) == 0);
    std::uint64_t mask = 0;
    for (int v = 0; v < numVcs_; ++v)
        mask |= 1ull << (static_cast<int>(q) * numVcs_ + v);
    if (alt != q) {
        // On-axis destination: either adjacent quadrant serves it.
        for (int v = 0; v < numVcs_; ++v)
            mask |= 1ull << (static_cast<int>(alt) * numVcs_ + v);
    }
    return mask;
}

void
PathSensitiveRouter::allocateVcs(Cycle now)
{
    for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
        const int i = std::countr_zero(scan);
        InputVc &ivc = in_[static_cast<size_t>(i)];
        if (!ivc.headWaiting(now))
            continue;
        PacketCtl &ctl = ivc.ctl.front();
        ++act_.vaLocalArbs;

        std::uint64_t elig = downstreamSlots(ctl.outDir, ivc.buf.front());
        if (elig == 0) {
            // Only a dead downstream node empties the pool: discard.
            discardPacket(ctl);
            continue;
        }
        int best = -1;
        int bestCredits = -1;
        pickReservableSlot(ctl.outDir, elig, ctl.owner, best, bestCredits);
        if (best >= 0)
            requestVc(i, ctl.outDir, best, ctl.nextLa);
    }
    grantVcs(now);
}

void
PathSensitiveRouter::allocateSwitch(Cycle now)
{
    // Stage 1: each path set commits to one candidate head before
    // output conflicts are visible (the chained dependency).
    int setWin[kNumQuadrants];
    bool setSpec[kNumQuadrants];
    for (int q = 0; q < kNumQuadrants; ++q) {
        setWin[q] = arbitrateGroup(q * numVcs_, numVcs_, saSet_[q], now,
                                   setSpec[q]);
    }

    // Latch requested outputs before commits mutate the queues.
    int wantOut[kNumQuadrants];
    for (int q = 0; q < kNumQuadrants; ++q) {
        wantOut[q] = setWin[q] < 0
                         ? -1
                         : static_cast<int>(
                               in_[static_cast<size_t>(q * numVcs_ +
                                                       setWin[q])]
                                   .ctl.front()
                                   .outDir);
    }

    // Stage 2: 2:1 arbitration per output port between the two
    // adjacent quadrants; speculative requests yield to committed.
    for (int out = 0; out < kNumCardinal; ++out) {
        Direction outDir = static_cast<Direction>(out);
        std::uint64_t mask = 0;
        std::uint64_t nonspec = 0;
        for (int q = 0; q < kNumQuadrants; ++q) {
            if (wantOut[q] == out) {
                mask |= 1ull << q;
                if (!setSpec[q])
                    nonspec |= 1ull << q;
            }
        }
        if (mask == 0)
            continue;
        ++act_.saGlobalArbs;
        int winQ = saOut_[out].arbitrate(nonspec ? nonspec : mask);

        for (int q = 0; q < kNumQuadrants; ++q) {
            if (!(mask & (1ull << q)))
                continue;
            noteContention(isRow(outDir), q != winQ);
        }

        xbar_.traverse(winQ, out);
        traverse(winQ * numVcs_ + setWin[winQ], now);
    }
}

} // namespace noc
