#include "router/generic/generic_router.h"

#include <bit>

#include "svc/protocol.h"

namespace noc {

GenericRouter::GenericRouter(NodeId id, const SimConfig &cfg,
                             const MeshTopology &topo,
                             const RoutingAlgorithm &routing,
                             const FaultMap *faults)
    : Router(id, cfg, topo, routing, faults),
      svcInjPartition_(svc::classPartitionActive(cfg)),
      xbar_(kNumPorts, kNumPorts), stPipe_(cfg.hopDelay - 1)
{
    // v VCs per port (Local included); output VC slots are per-port VC
    // indices, and one VA arbiter per output VC chooses among the 5v
    // input VCs.
    initOutputVcs(kNumPorts, numVcs_, cfg.bufferDepthGeneric);
    initInputVcs(kNumPorts * numVcs_, cfg.bufferDepthGeneric,
                 kNumPorts * numVcs_, true);
    ejectPipe_ = &stPipe_;

    saPort_.reserve(kNumPorts);
    saOut_.reserve(kNumPorts);
    for (int i = 0; i < kNumPorts; ++i) {
        saPort_.emplace_back(numVcs_);
        saOut_.emplace_back(kNumPorts);
    }
}

void
GenericRouter::step(Cycle now)
{
    if (nodeDead())
        return; // off-line: no receive, no credits, full backpressure

    xbar_.beginCycle();
    receiveCredits(now);
    while (auto f = stPipe_.receive(now)) {
        noteFlitUnbuffered(); // ST pipe counts as buffered work
        nic_->deliverFlit(*f, now);
    }
    receiveFlits(now);
    pullInjection(now);
    drainDropped(now);
    allocateVcs(now);
    allocateSwitch(now);
}

bool
GenericRouter::permanentlyBlocked(const Flit &head) const
{
    if (!faults_)
        return false;
    if (destinationDead(head))
        return true;
    for (Direction d : routing_.route(id(), head)) {
        if (d == Direction::Local)
            return false;
        if (!hasPort(d))
            continue;
        auto nb = topo_.neighbor(id(), d);
        if (nb && !faults_->state(*nb).nodeDead)
            return false;
    }
    return true;
}

void
GenericRouter::pullInjection(Cycle now)
{
    if (!nicHasPending())
        return;
    const Flit &front = nicPeekPending();
    const bool head = isHead(front.type);
    // Discard packets that can never leave the source (fault-blocked).
    if (dropAtSource(head && permanentlyBlocked(front), now))
        return;
    if (!head) {
        injectFollower(front.packetId, now);
        return;
    }
    // Claim a completely idle injection VC for the new packet. Under
    // the service-mode class partition the claimable range splits by
    // dimension order: replies (YX) own the last Local VC, requests
    // (XY) the rest — the injection half of the prover's end-to-end
    // partition argument.
    int lo = 0;
    int hi = numVcs_;
    if (svcInjPartition_) {
        if (front.yxOrder)
            lo = numVcs_ - 1;
        else
            hi = numVcs_ - 1;
    }
    const int local = static_cast<int>(Direction::Local) * numVcs_;
    for (int v = lo; v < hi; ++v) {
        if (in_[static_cast<size_t>(local + v)].ctl.empty()) {
            injectInto(local + v, Direction::Invalid, now);
            return;
        }
    }
    // injection stalls this cycle
}

bool
GenericRouter::slotAllowed(Direction d, int slot, const Flit &head) const
{
    if (d == Direction::Local)
        return true;
    // XY-YX partitions VCs by dimension order: the last VC belongs to
    // YX packets, the rest to XY packets.  Each partition's channel
    // dependency graph is acyclic on its own, so the oblivious scheme
    // stays deadlock-free (the role of the paper's extra VCs).
    if (routingKind() == RoutingKind::XYYX) {
        bool yxSlot = slot == numVcs_ - 1;
        return head.yxOrder == yxSlot;
    }
    // XY is dimension-ordered and west-first adaptive is turn-model
    // safe; neither restricts VC usage.
    return true;
}

bool
GenericRouter::pickVcRequest(const Flit &head, Direction &dirOut,
                             int &slotOut)
{
    DirectionSet cand = routing_.route(id(), head);
    NOC_ASSERT(!cand.empty(), "no route candidates");

    int bestCredits = -1;
    dirOut = Direction::Invalid;
    slotOut = -1;
    for (Direction d : cand) {
        if (d != Direction::Local) {
            if (!hasPort(d))
                continue;
            if (faults_) {
                auto nb = topo_.neighbor(id(), d);
                if (nb && faults_->state(*nb).nodeDead)
                    continue; // never send into a dead node
            }
        }
        for (int s = 0; s < outputSlots(); ++s) {
            const OutputVc &o = outputVc(d, s);
            if (!slotAllowed(d, s, head) || o.busy)
                continue;
            // Adaptive selection: most free credits wins; ties keep
            // the routing function's preferred (earlier) direction.
            if (o.credits > bestCredits) {
                bestCredits = o.credits;
                dirOut = d;
                slotOut = s;
            }
        }
    }
    return slotOut >= 0;
}

void
GenericRouter::allocateVcs(Cycle now)
{
    // Input-first separable VA: every waiting head picks one candidate
    // output VC, then each contested output VC arbitrates (Figure 2a).
    for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
        const int i = std::countr_zero(scan);
        InputVc &ivc = in_[static_cast<size_t>(i)];
        if (!ivc.headWaiting(now))
            continue;
        const Flit &head = ivc.buf.front();
        if (permanentlyBlocked(head)) {
            discardPacket(ivc.ctl.front());
            continue;
        }
        Direction dir;
        int slot;
        ++act_.vaLocalArbs;
        if (pickVcRequest(head, dir, slot))
            requestVc(i, dir, slot, Direction::Invalid);
    }
    grantVcs(now);
}

void
GenericRouter::allocateSwitch(Cycle now)
{
    // Stage 1: one winner per input port; requests from packets that
    // won VA this very cycle are speculative and yield to committed
    // ones.
    int stage1[kNumPorts];
    bool stage1Spec[kNumPorts];
    for (int p = 0; p < kNumPorts; ++p) {
        stage1[p] = arbitrateGroup(p * numVcs_, numVcs_, saPort_[p], now,
                                   stage1Spec[p]);
    }

    // Latch each stage-1 winner's requested output now: commits below
    // mutate the control queues, so reading them lazily would be
    // stale (or worse, empty) for later outputs.
    int wantOut[kNumPorts];
    for (int p = 0; p < kNumPorts; ++p) {
        wantOut[p] = stage1[p] < 0
                         ? -1
                         : static_cast<int>(
                               in_[static_cast<size_t>(p * numVcs_ +
                                                       stage1[p])]
                                   .ctl.front()
                                   .outDir);
    }

    // Stage 2: one winner per output port; speculative requests are
    // masked whenever a committed request wants the same output.
    for (int out = 0; out < kNumPorts; ++out) {
        std::uint64_t mask = 0;
        std::uint64_t nonspec = 0;
        for (int p = 0; p < kNumPorts; ++p) {
            if (wantOut[p] == out) {
                mask |= 1ull << p;
                if (!stage1Spec[p])
                    nonspec |= 1ull << p;
            }
        }
        if (mask == 0)
            continue;
        ++act_.saGlobalArbs;
        int winPort = saOut_[out].arbitrate(nonspec ? nonspec : mask);

        // Contention probes: every stage-1 winner requesting this
        // output either proceeds or is blocked this cycle (Figure 3).
        for (int p = 0; p < kNumPorts; ++p) {
            if (!(mask & (1ull << p)))
                continue;
            Direction pd = static_cast<Direction>(p);
            bool rowInput = pd == Direction::Local
                                ? isRow(static_cast<Direction>(out))
                                : isRow(pd);
            noteContention(rowInput, p != winPort);
        }

        xbar_.traverse(winPort, out);
        traverse(winPort * numVcs_ + stage1[winPort], now);
    }
}

} // namespace noc
