#include "router/router.h"

#include <bit>
#include <limits>
#include <string>

#include "obs/recorder.h"

namespace noc {

namespace {

/** Healthy state returned when no fault map is installed. */
const NodeFaultState kHealthy{};

/** Credits of a PE-side output VC: the PE always sinks. */
constexpr int kLocalCredits = std::numeric_limits<int>::max() / 2;

} // namespace

Router::Router(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
               const RoutingAlgorithm &routing, const FaultMap *faults)
    : numVcs_(cfg.vcsPerPort), cfg_(cfg), topo_(topo), routing_(routing),
      faults_(faults),
      rng_(cfg.seed, 0x5EED0000ull + id), id_(id),
      // The map's per-node states live in a vector sized once at
      // construction and mutated in place, so the reference is stable
      // for the router's lifetime (fault injection included).
      fs_(faults ? &faults->state(id) : &kHealthy),
      routingKind_(routing.kind())
{
}

void
Router::connectPort(Direction d, const PortIo &io)
{
    NOC_ASSERT(isCardinal(d), "only cardinal ports are wired");
    NOC_ASSERT(io.flitIn && io.flitOut && io.creditIn && io.creditOut,
               "incomplete port wiring");
    ports_[static_cast<int>(d)] = io;
}

void
Router::setNeighbor(Direction d, Router *r)
{
    NOC_ASSERT(isCardinal(d), "neighbors sit behind cardinal ports");
    neighbors_[static_cast<int>(d)] = r;
}

void
Router::initOutputVcs(int ports, int slotsPerDir, int bufferDepth)
{
    slotsPerDir_ = slotsPerDir;
    outVcDepth_ = bufferDepth;
    outVc_.assign(static_cast<size_t>(ports) * slotsPerDir, OutputVc{});
    for (int d = 0; d < ports; ++d) {
        for (int s = 0; s < slotsPerDir; ++s) {
            outputVc(static_cast<Direction>(d), s).credits =
                d == static_cast<int>(Direction::Local) ? kLocalCredits
                                                        : bufferDepth;
        }
    }
}

void
Router::initInputVcs(int count, int depth, int groupSize, bool perLinkVcs,
                     std::vector<std::uint8_t> groupOutputs)
{
    NOC_ASSERT(count >= 1 && count <= 64,
               "input VCs are tracked in 64-bit masks");
    NOC_ASSERT(slotsPerDir_ > 0, "size the output VCs first");
    depth_ = depth;
    groupSize_ = groupSize;
    perLinkVcs_ = perLinkVcs;
    groupOutputs_ = std::move(groupOutputs);
    flitPool_.resize(static_cast<size_t>(count) * depth);
    ctlPool_.resize(static_cast<size_t>(count) * (depth + 1));
    in_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        in_.emplace_back(&flitPool_[static_cast<size_t>(i) * depth], depth,
                         &ctlPool_[static_cast<size_t>(i) * (depth + 1)],
                         depth + 1);
    }
    order_.resize(in_.size());

    // One VA arbiter per output VC, each choosing among all input VCs.
    vaArb_.reserve(outVc_.size());
    for (size_t k = 0; k < outVc_.size(); ++k)
        vaArb_.emplace_back(count);
    vaReqs_.reserve(static_cast<size_t>(count));
    vaMasks_.assign(outVc_.size(), 0);
}

int
Router::bufferedFlits() const
{
    int n = 0;
    for (const InputVc &v : in_)
        n += v.buf.occupancy();
    if (ejectPipe_)
        n += static_cast<int>(ejectPipe_->inFlight());
    return n;
}

int
Router::inputVcOccupancy(Direction fromDir, int slotId) const
{
    const int i = inputIndex(fromDir, slotId);
    NOC_ASSERT(i >= 0 && i < static_cast<int>(in_.size()),
               "input VC slot range");
    // Pooled slots are shared between upstream links; attribute the
    // occupancy to the link whose packet currently holds the buffer.
    const InputVc &ivc = in_[static_cast<size_t>(i)];
    return ivc.occupantLink == fromDir ? ivc.buf.occupancy() : 0;
}

bool
Router::reserveInputVc(int slotId, Direction fromDir, std::uint64_t packetId,
                       bool probeOnly, int &freeSpace)
{
    NOC_ASSERT(!perLinkVcs_, "per-link VCs use no reservation handshake");
    NOC_ASSERT(slotId >= 0 && slotId < static_cast<int>(in_.size()),
               "reservation slot out of range");
    InputVc &ivc = in_[static_cast<size_t>(slotId)];
    // A slot is grantable when unreserved, or when the same link is
    // chaining packets back to back (its previous tail is in flight).
    if (ivc.reservedFrom != Direction::Invalid &&
        ivc.reservedFrom != fromDir) {
        return false;
    }
    // Cross-link handoff must wait for the previous link's flits to
    // drain: buffer pops return credits to the link that sent the
    // flit, so a new reserver could never learn about that space.
    if (!ivc.buf.empty() && ivc.occupantLink != fromDir)
        return false;
    freeSpace = depth_ - ivc.buf.occupancy();
    if (!probeOnly) {
        ivc.reservedFrom = fromDir;
        ivc.reservedPacket = packetId;
    }
    return true;
}

void
Router::bufferFlit(int i, const Flit &f, Direction srcDir, Cycle now)
{
    InputVc &ivc = in_[static_cast<size_t>(i)];
    const int group = i / groupSize_;
    ++act_.bufferWrites;
    NOC_OBS(if (obs_) obs_->record(obs::Stage::BufferWrite, f, id(), now,
                                   group, i));
    order_[static_cast<size_t>(i)].onFlit(f, now, id(), srcDir,
                                          i % numVcs_);
    if (isHead(f.type)) {
        PacketCtl ctl;
        ctl.owner = f.packetId;
        ctl.srcDir = srcDir;
        ++act_.rcComputations; // RC as the head is latched (stage 1)
        if (!perLinkVcs_) {
            ctl.outDir = f.lookahead;
            NOC_ASSERT(isCardinal(ctl.outDir),
                       "buffered flit must have a cardinal output");
            // Path-set discipline: guided queuing steers a flit into a
            // module / quadrant that serves its output.
            const bool served =
                (groupOutputs_[static_cast<size_t>(group)] >>
                 static_cast<int>(ctl.outDir)) & 1u;
            NOC_INVARIANT(served, check::InvariantKind::PathSetDiscipline,
                          now, id(), srcDir, i % numVcs_,
                          std::string("flit of packet ") +
                              std::to_string(f.packetId) +
                              " buffered in path-set group " +
                              std::to_string(group) +
                              " requests output " + toString(ctl.outDir));
            NOC_ASSERT(served,
                       "guided queuing placed a flit in the wrong group");
            // Look-ahead routing for the next hop happens as the head
            // is latched; a faulty local RC unit adds the
            // double-routing handshake cycle (Section 4, Figure 5).
            ctl.nextLa = computeLookahead(ctl.outDir, f);
            ctl.vaEligible = faultState().rcFaulty ? now + 1 : now;
            if (ctl.nextLa == Direction::Invalid || destinationDead(f)) {
                // Every minimal next hop is behind a hard fault: discard.
                ctl.stage = PacketCtl::Stage::Drop;
                ++dropPending_;
            } else if (ctl.nextLa == Direction::Local) {
                // Ejection at the next router happens before its
                // switch; no downstream VC is ever allocated.
                ctl.outSlot = kEjectSlot;
                ctl.stage = PacketCtl::Stage::Active;
            }
        }
        ivc.ctl.push_back(ctl);
        ctlMask_ |= 1ull << i;
    }
    NOC_ASSERT(!ivc.ctl.empty() && ivc.ctl.back().owner == f.packetId,
               "flit interleaving within a VC");
    ivc.occupantLink = srcDir;
    ivc.buf.push(f);
    noteFlitBuffered();
    // The reservation handshake releases the slot once the tail is
    // safely buffered; the next upstream sees the true occupancy.
    if (isTail(f.type) && ivc.reservedPacket == f.packetId) {
        ivc.reservedFrom = Direction::Invalid;
        ivc.reservedPacket = 0;
    }
}

void
Router::receiveFlits(Cycle now)
{
    for (int d = 0; d < kNumCardinal; ++d) {
        const Flit *f = peekFlitFrom(d, now);
        if (!f)
            continue;
        const Direction dir = static_cast<Direction>(d);
        if (f->lookahead == Direction::Local) {
            // Early ejection: straight off the demux to the PE.
            NOC_ASSERT(f->dst == id(), "early ejection at wrong node");
            ++act_.earlyEjections;
            Flit ej = *f; // noc-lint:allow(flit-copy) ejection copy to the local port
            consumeFlitFrom(d);
            ++ej.hops;
            NOC_OBS(if (obs_)
                        obs_->record(obs::Stage::EarlyEject, ej, id(), now));
            nic_->deliverFlit(ej, now);
            continue;
        }
        bufferFlit(inputIndex(dir, f->vc), *f, dir, now);
        consumeFlitFrom(d);
    }
}

bool
Router::dropAtSource(bool headBlocked, Cycle now)
{
    const Flit &front = nicPeekPending();
    const bool continuing = front.packetId == droppingPacket_;
    if (!continuing && !headBlocked)
        return false;
    retireFlit(front, now);
    NOC_OBS(if (obs_ && !continuing)
                obs_->record(obs::Stage::Drop, front, id(), now));
    droppingPacket_ = isTail(front.type) ? 0 : front.packetId;
    nicPopPending();
    return true;
}

void
Router::injectFollower(std::uint64_t packetId, Cycle now)
{
    for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
        const int i = std::countr_zero(scan);
        const PacketCtl &ctl = in_[static_cast<size_t>(i)].ctl.back();
        if (ctl.owner == packetId && ctl.srcDir == Direction::Local) {
            injectInto(i, ctl.outDir, now);
            return;
        }
    }
    NOC_ASSERT(false, "body flit lost its injection VC");
}

void
Router::injectInto(int i, Direction lookahead, Cycle now)
{
    if (in_[static_cast<size_t>(i)].buf.full())
        return; // stall: buffer back-pressure
    Flit f = nicPopPending(); // noc-lint:allow(flit-copy) per-hop copy at injection
    f.lookahead = lookahead;
    f.vc = wireSlot(i);
    bufferFlit(i, f, Direction::Local, now);
}

void
Router::drainDropped(Cycle now)
{
    if (dropPending_ == 0)
        return;
    for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
        const int i = std::countr_zero(scan);
        InputVc &ivc = in_[static_cast<size_t>(i)];
        const PacketCtl &ctl = ivc.ctl.front();
        if (ctl.stage != PacketCtl::Stage::Drop || ivc.buf.empty() ||
            ivc.buf.front().packetId != ctl.owner) {
            continue;
        }
        const Flit &f = ivc.buf.front();
        const bool tail = isTail(f.type);
        retireFlit(f, now);
        NOC_OBS(if (obs_ && isHead(f.type))
                    obs_->record(obs::Stage::Drop, f, id(), now,
                                 i / groupSize_, i));
        if (tail && ivc.reservedPacket == f.packetId) {
            ivc.reservedFrom = Direction::Invalid;
            ivc.reservedPacket = 0;
        }
        ivc.buf.drop();
        noteFlitUnbuffered();
        if (ctl.srcDir != Direction::Local)
            sendCredit(ctl.srcDir, wireSlot(i), now);
        if (tail) {
            ivc.ctl.pop_front();
            if (ivc.ctl.empty())
                ctlMask_ &= ~(1ull << i);
            --dropPending_;
        }
    }
}

bool
Router::pickReservableSlot(Direction outDir, std::uint64_t elig,
                           std::uint64_t packetId, int &best,
                           int &bestCredits)
{
    Router *down = neighbor(outDir);
    NOC_ASSERT(down, "look-ahead across the mesh edge");
    const Direction arrival = opposite(outDir);
    bool improved = false;
    for (; elig; elig &= elig - 1) {
        const int s = std::countr_zero(elig);
        const OutputVc &o = outputVc(outDir, s);
        if (o.busy)
            continue;
        int freeSpace = 0;
        if (!down->reserveInputVc(s, arrival, packetId, true, freeSpace))
            continue; // another link holds the slot
        if (o.credits > bestCredits) {
            bestCredits = o.credits;
            best = s;
            improved = true;
        }
    }
    return improved;
}

unsigned
Router::grantVcs(Cycle now)
{
    // Index requests by input VC so a grant applies the *winner's* own
    // request (its slot and its look-ahead choice).
    int reqOf[64];
    for (int &x : reqOf)
        x = -1;
    for (int ri = 0; ri < static_cast<int>(vaReqs_.size()); ++ri)
        reqOf[vaReqs_[static_cast<size_t>(ri)].inIdx] = ri;

    unsigned granted = 0;
    for (const VaRequest &r0 : vaReqs_) {
        const size_t key =
            static_cast<size_t>(r0.dir) * slotsPerDir_ + r0.slot;
        if (vaMasks_[key] == 0)
            continue; // this output VC already granted this cycle
        ++act_.vaGlobalArbs;
        const int winner = vaArb_[key].arbitrate(vaMasks_[key]);
        NOC_ASSERT(winner >= 0 && reqOf[winner] >= 0,
                   "VA arbiter returned no winner");
        vaMasks_[key] = 0;
        const VaRequest &r = vaReqs_[static_cast<size_t>(reqOf[winner])];

        InputVc &ivc = in_[static_cast<size_t>(winner)];
        PacketCtl &ctl = ivc.ctl.front();
        OutputVc &o = outputVc(r.dir, r.slot);
        NOC_ASSERT(!o.busy, "VA granted a busy output VC");
        if (!perLinkVcs_) {
            Router *down = neighbor(r.dir);
            int freeSpace = 0;
            bool ok = down->reserveInputVc(r.slot, opposite(r.dir),
                                           ctl.owner, false, freeSpace);
            NOC_ASSERT(ok, "reservation vanished between probe and grant");
        }
        o.busy = true;
        o.ownerPacket = ctl.owner;
        ctl.outDir = r.dir;
        ctl.outSlot = r.slot;
        ctl.nextLa = r.nextLa; // commit the adaptive look-ahead choice
        ctl.stage = PacketCtl::Stage::Active;
        if (vaGrantStamp_ != now) {
            vaGrantStamp_ = now;
            vaGrantMask_ = 0;
        }
        vaGrantMask_ |= 1ull << winner;
        NOC_OBS(if (obs_ && !ivc.buf.empty() &&
                    ivc.buf.front().packetId == ctl.owner)
                    obs_->record(obs::Stage::VaGrant, ivc.buf.front(), id(),
                                 now, winner / groupSize_, winner));
        granted |= 1u << static_cast<int>(r.dir);
    }
    vaReqs_.clear();
    return granted;
}

int
Router::arbitrateGroup(int first, int count, RoundRobinArbiter &arb,
                       Cycle now, bool &spec)
{
    std::uint64_t mask = 0;
    std::uint64_t specMask = 0;
    for (std::uint64_t scan = (ctlMask_ >> first) & ((1ull << count) - 1);
         scan; scan &= scan - 1) {
        const int v = std::countr_zero(scan);
        const SwitchReq req = switchRequest(first + v, now);
        if (req == SwitchReq::Committed)
            mask |= 1ull << v;
        else if (req == SwitchReq::Speculative)
            specMask |= 1ull << v;
    }
    if (mask | specMask)
        ++act_.saLocalArbs;
    spec = mask == 0 && specMask != 0;
    if (mask | specMask)
        return arb.arbitrate(mask ? mask : specMask);
    return -1;
}

void
Router::traverse(int i, Cycle now)
{
    InputVc &ivc = in_[static_cast<size_t>(i)];
    const PacketCtl &ctl = ivc.ctl.front();
    // Rewrite the head slot in place and send straight from the
    // buffer: the only surviving copy is the channel push.
    Flit &f = ivc.buf.front();
    NOC_ASSERT(f.packetId == ctl.owner, "VC FIFO out of sync");
    ++act_.bufferReads;
    ++act_.crossbarTraversals;
    ++f.hops;
    if (ctl.outDir == Direction::Local) {
        // The ST stage before the PE sees the flit; it stays local
        // work until the pipe drains.
        NOC_ASSERT(ejectPipe_ && f.dst == id(), "ejecting at the wrong node");
        NOC_OBS(if (obs_) obs_->record(obs::Stage::SwitchTraverse, f, id(),
                                       now, 0, f.vc));
        ejectPipe_->send(f, now);
        noteFlitBuffered();
    } else {
        f.lookahead = ctl.nextLa;
        f.vc = ctl.outSlot == kEjectSlot
                   ? 0xFF
                   : static_cast<std::uint8_t>(ctl.outSlot);
        sendFlit(ctl.outDir, f, now);
        if (ctl.outSlot != kEjectSlot) {
            OutputVc &o = outputVc(ctl.outDir, ctl.outSlot);
            --o.credits;
            ++o.outstanding;
        }
    }
    const bool tail = isTail(f.type);
    ivc.buf.drop();
    noteFlitUnbuffered();
    if (ctl.srcDir != Direction::Local)
        sendCredit(ctl.srcDir, wireSlot(i), now);
    if (tail) {
        if (ctl.outSlot != kEjectSlot) {
            OutputVc &o = outputVc(ctl.outDir, ctl.outSlot);
            o.busy = false;
            o.ownerPacket = 0;
        }
        ivc.ctl.pop_front();
        if (ivc.ctl.empty())
            ctlMask_ &= ~(1ull << i);
    }
}

bool
Router::creditsQuiescent() const
{
    for (int d = 0; d < kNumCardinal; ++d) {
        if (!ports_[d].flitOut)
            continue; // mesh edge: slots never used
        for (int s = 0; s < slotsPerDir_; ++s) {
            const OutputVc &o = outputVc(static_cast<Direction>(d), s);
            if (o.busy || o.outstanding != 0 ||
                o.credits != outVcDepth_) {
                return false;
            }
        }
    }
    return true;
}

void
Router::sendFlit(Direction d, const Flit &f, Cycle now)
{
    PortIo &p = port(d);
    NOC_ASSERT(p.flitOut, "sendFlit on missing port");
    p.flitOut->send(f, now);
    if (Router *nb = neighbors_[static_cast<int>(d)])
        bumpPend(nb->pendFlitIn_[static_cast<int>(opposite(d))]);
    if (auto *w = wake_[static_cast<int>(d)])
        w->store(1, std::memory_order_relaxed);
    ++act_.linkTraversals;
    NOC_OBS(if (obs_) obs_->record(obs::Stage::SwitchTraverse, f, id(),
                                   now, static_cast<int>(moduleOf(d)),
                                   f.vc));
}

void
Router::sendCredit(Direction inDir, std::uint8_t vcId, Cycle now)
{
    PortIo &p = port(inDir);
    NOC_ASSERT(p.creditOut, "sendCredit on missing port");
    p.creditOut->send(Credit{vcId}, now);
    if (Router *nb = neighbors_[static_cast<int>(inDir)])
        bumpPend(nb->pendCreditIn_[static_cast<int>(opposite(inDir))]);
    if (auto *w = wake_[static_cast<int>(inDir)])
        w->store(1, std::memory_order_relaxed);
}

void
Router::countInFlight(Direction d, std::vector<int> &flits,
                      std::vector<int> &credits) const
{
    flits.assign(static_cast<std::size_t>(slotsPerDir_), 0);
    credits.assign(static_cast<std::size_t>(slotsPerDir_), 0);
    const PortIo &p = port(d);
    if (p.flitOut) {
        p.flitOut->forEach([&](const Flit &f) {
            if (f.vc != 0xFF && f.vc < slotsPerDir_)
                ++flits[f.vc];
        });
    }
    if (p.creditIn) {
        p.creditIn->forEach([&](const Credit &c) {
            if (c.vc < slotsPerDir_)
                ++credits[c.vc];
        });
    }
}

void
Router::debugCorruptCredit(Direction d, int slot)
{
    --outputVc(d, slot).credits;
}

DirectionSet
Router::lookaheadCandidates(Direction outDir, const Flit &f) const
{
    auto next = topo_.neighbor(id_, outDir);
    NOC_ASSERT(next.has_value(), "look-ahead across the mesh edge");
    DirectionSet out;
    if (*next == f.dst) {
        if (!faults_ || !faults_->state(*next).nodeDead)
            out.push(Direction::Local);
        return out; // empty when the destination itself is off-line
    }

    DirectionSet cand = routing_.route(*next, f);
    NOC_ASSERT(!cand.empty(), "routing returned no candidates");

    // Fault awareness: skip candidates that would strand the flit at
    // the next router (dead node beyond it, or — for module-scoped
    // architectures — the module owning the candidate output is dead
    // at the next router itself).
    for (Direction c : cand) {
        if (faults_) {
            if (faults_->blocksOutput(*next, c))
                continue; // cannot even be buffered for that output
            auto beyond = topo_.neighbor(*next, c);
            if (beyond && faults_->state(*beyond).nodeDead)
                continue; // would head into a dead node

        }
        out.push(c);
    }
    // An empty result means every minimal candidate is permanently
    // blocked; callers discard the packet (static fault handling).
    return out;
}

Direction
Router::computeLookahead(Direction outDir, const Flit &f) const
{
    DirectionSet cand = lookaheadCandidates(outDir, f);
    if (cand.empty())
        return Direction::Invalid; // permanently blocked: discard
    // Prefer continuing in the dimension the flit is moving in now;
    // fewer turns means less pressure on the txy/tyx path sets.
    for (Direction c : cand) {
        if (c == Direction::Local || isRow(c) == isRow(outDir))
            return c;
    }
    return cand[0];
}

bool
Router::destinationDead(const Flit &f) const
{
    return faults_ && faults_->state(f.dst).nodeDead;
}

} // namespace noc
