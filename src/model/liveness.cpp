#include "model/liveness.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>

#include "check/deadlock.h"
#include "common/log.h"
#include "model/arbiter_check.h"

namespace noc::model {

namespace {

NodeId
at(int w, int x, int y)
{
    return static_cast<NodeId>(y * w + x);
}

std::string
label(RouterArch arch, RoutingKind kind, int w, int h, const char *base)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/%s %dx%d %s", toString(arch),
                  toString(kind), w, h, base);
    return buf;
}

Scenario
base(RouterArch arch, RoutingKind kind, int w, int h, const char *name)
{
    Scenario sc;
    sc.name = label(arch, kind, w, h, name);
    sc.arch = arch;
    sc.routing = kind;
    sc.width = w;
    sc.height = h;
    return sc;
}

} // namespace

std::vector<Scenario>
scenarioMatrix(RouterArch arch, RoutingKind kind, int w, int h)
{
    NOC_ASSERT(w >= 2 && h >= 2 && w * h <= kMaxNodes,
               "model mesh out of range");
    std::vector<Scenario> out;
    const NodeId A = at(w, 0, 0), B = at(w, w - 1, h - 1);
    const NodeId C = at(w, w - 1, 0), D = at(w, 0, h - 1);
    const bool big = w >= 3 && h >= 3;
    const bool yx = kind == RoutingKind::XYYX;

    // Fault-free crossing workload: contends for the central slots in
    // both dimensions; every packet is implicitly must-deliver.
    {
        Scenario sc = base(arch, kind, w, h, "healthy-cross");
        sc.packets = {{A, B, false, false},
                      {B, A, yx, false},
                      {C, D, false, false}};
        out.push_back(sc);
    }

    if (arch == RouterArch::Roco) {
        const NodeId M = big ? at(w, 1, 1) : at(w, 1, 0);
        // RC fault: neighbours double-route; purely a timing penalty,
        // so delivery is still guaranteed (Table 3 row 1).
        {
            Scenario sc = base(arch, kind, w, h, "rc-recycle");
            sc.faults = {{at(w, 1, 0), FaultComponent::RoutingUnit,
                          Module::Row, 0, 0}};
            sc.packets = {{A, C, false, true}, {D, B, false, true}};
            out.push_back(sc);
        }
        // Retired VC: traffic through the node may ride the remaining
        // slots of its path set or drop if the class emptied — but must
        // never strand; traffic elsewhere is unaffected.
        {
            Scenario sc = base(arch, kind, w, h, "dead-vc");
            sc.faults = {{at(w, 1, 0), FaultComponent::VcBuffer,
                          Module::Row, 0, 0}};
            sc.packets = {{A, C, false, false}, {D, B, false, true}};
            out.push_back(sc);
        }
        // Degraded SA: borrowed VA arbiters reduce grant bandwidth but
        // never reachability.
        {
            Scenario sc = base(arch, kind, w, h, "sa-degraded");
            sc.faults = {{at(w, 1, 0), FaultComponent::SaArbiter,
                          Module::Row, 0, 0}};
            sc.packets = {{A, C, false, true}, {D, B, false, true}};
            out.push_back(sc);
        }
        // Dead row module (VA fault): column traffic through the very
        // same node must still deliver — the paper's row/column
        // independence claim, checked exhaustively.
        {
            Scenario sc = base(arch, kind, w, h, "row-module-dead");
            sc.faults = {{M, FaultComponent::VaArbiter, Module::Row, 0,
                          0}};
            if (big)
                sc.packets = {{at(w, 1, 0), at(w, 1, 2), false, true},
                              {at(w, 0, 1), at(w, 2, 1), false, false}};
            else
                sc.packets = {{at(w, 1, 0), at(w, 1, 1), false, true},
                              {A, at(w, 1, 0), false, true}};
            out.push_back(sc);
        }
        // Dead column module (crossbar fault): the mirror image.
        {
            Scenario sc = base(arch, kind, w, h, "col-module-dead");
            sc.faults = {{M, FaultComponent::Crossbar, Module::Column, 0,
                          0}};
            if (big)
                sc.packets = {{at(w, 0, 1), at(w, 2, 1), false, true},
                              {at(w, 1, 0), at(w, 1, 2), false, false}};
            else
                sc.packets = {{A, at(w, 1, 0), false, true},
                              {at(w, 1, 1), at(w, 1, 0), false, true}};
            out.push_back(sc);
        }
    } else {
        // Unified designs: any hard fault takes the node off-line.
        // Traffic not meeting the node delivers; traffic through or
        // into it is deterministically accounted as dropped.
        Scenario sc = base(arch, kind, w, h, "node-dead");
        const NodeId N = at(w, 1, 0);
        sc.faults = {{N, FaultComponent::Crossbar, Module::Row, 0, 0}};
        if (big)
            sc.packets = {{A, at(w, 0, 2), false, true},
                          {A, at(w, 2, 0), false, false},
                          {at(w, 2, 1), N, false, false}};
        else
            sc.packets = {{A, D, false, true},
                          {B, A, false, true},
                          {A, N, false, false}};
        out.push_back(sc);
    }
    return out;
}

Scenario
brokenModelScenario(Mutation m)
{
    switch (m) {
    case Mutation::NonMinimalRouting: {
        Scenario sc = base(RouterArch::Generic, RoutingKind::XY, 2, 2,
                           "broken-nonminimal");
        sc.mutation = m;
        sc.packets = {{at(2, 0, 0), at(2, 1, 1), false, false}};
        return sc;
    }
    case Mutation::NoFaultDrop: {
        Scenario sc = base(RouterArch::Generic, RoutingKind::XY, 3, 3,
                           "broken-no-drop");
        sc.mutation = m;
        sc.faults = {{at(3, 1, 1), FaultComponent::Crossbar, Module::Row,
                      0, 0}};
        sc.packets = {{at(3, 0, 0), at(3, 1, 2), false, false}};
        return sc;
    }
    case Mutation::None:
        break;
    }
    NOC_ASSERT(false, "no broken scenario for mutation");
    return {};
}

namespace {
std::atomic<std::uint64_t> gLivenessProofs{0};
} // namespace

std::uint64_t
livenessProofsPerformed()
{
    return gLivenessProofs.load(std::memory_order_relaxed);
}

void
validateConfigLiveness(const SimConfig &cfg)
{
    if (!check::upfrontChecksEnabled())
        return;
    static std::mutex mu;
    static std::set<std::uint64_t> proven;
    std::uint64_t key =
        check::proofFingerprint(cfg, check::ProofScope::Liveness);
    // Held across the proof so concurrent SweepRunner workers neither
    // race the cache nor duplicate the work (same discipline as
    // check::validateConfigOrDie).
    std::lock_guard<std::mutex> lock(mu);
    if (proven.count(key))
        return;

    // The arbiter obligations depend on no config field at all: prove
    // each once per process, under the same lock.
    static bool roundRobinProved = false;
    static bool mirrorProved = false;
    if (!roundRobinProved) {
        for (int size : {2, 3, 5}) {
            ArbiterCheckResult r = checkRoundRobinBoundedWait(size);
            if (!r.ok) {
                std::fprintf(stderr, "%s\n%s", r.summary().c_str(),
                             r.counterexample.c_str());
                fatal("round-robin arbiter starvation");
            }
        }
        roundRobinProved = true;
    }
    if (cfg.arch == RouterArch::Roco && !mirrorProved) {
        ArbiterCheckResult r = checkMirrorAllocatorBoundedWait();
        if (!r.ok) {
            std::fprintf(stderr, "%s\n%s", r.summary().c_str(),
                         r.counterexample.c_str());
            fatal("mirror switch-allocator starvation");
        }
        mirrorProved = true;
    }
    for (const Scenario &sc : scenarioMatrix(cfg.arch, cfg.routing, 2, 2)) {
        ModelResult r = explore(sc);
        if (!r.ok) {
            std::fprintf(stderr, "%s\n%s", r.summary().c_str(),
                         r.counterexample.c_str());
            fatal("liveness model check failed");
        }
    }
    gLivenessProofs.fetch_add(1, std::memory_order_relaxed);
    proven.insert(key);
}

} // namespace noc::model
