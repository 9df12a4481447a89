/**
 * @file
 * Hand-rolled serial reference for Simulator::run.
 *
 * Simulator::run drives every run, serial ones included, through the
 * bulk-synchronous engine (par::runSharded). This test rebuilds the
 * documented single-cycle loop from the public pieces — RunControl's
 * beginCycle / endCycle around Network::step — and requires it to
 * reproduce Simulator::run exactly for every architecture, open and
 * closed loop, with and without two Table 3 critical faults: the end
 * cycle, the measured cycles, the timeout flag, injected and delivered
 * packets, the whole flit ledger, the activity counters and the router
 * steps executed and scheduled. It is the independent serial reference
 * the engine's own shard-count equivalence cannot provide.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "common/flit.h"
#include "sim/network.h"
#include "sim/run_control.h"
#include "sim/simulator.h"

namespace noc {
namespace {

/** Bytewise equality of a counter struct without padding. */
template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "padding bytes would make the comparison unreliable");
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** What a finished run leaves behind beyond its SimResult. */
struct RunTrace {
    Cycle end = 0;
    Cycle measured = 0;
    bool timedOut = false;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    FlitLedger ledger;
    ActivityCounters activity;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;
};

void
readCounters(const Network &net, RunTrace &t)
{
    t.injected = net.totalInjectedMeasured();
    t.delivered = net.totalDeliveredMeasured();
    t.ledger = net.ledger();
    t.activity = net.totalActivity();
    t.stepsExecuted = net.routerStepsExecuted();
    t.stepsScheduled = net.routerStepsScheduled();
}

/** The single-cycle loop: RunControl around Network::step. */
RunTrace
replay(const SimConfig &cfg, const std::vector<FaultSpec> &faults)
{
    Network net(cfg, faults);
    RunControl ctl(cfg);
    Cycle now = 0;
    while (now < cfg.maxCycles) {
        if (ctl.beginCycle(now, net.traceExhausted(),
                           net.packetsGenerated())) {
            net.resetActivity();
            net.resetContention();
        }
        net.step(now, ctl.generating(), ctl.measuring());
        ++now;
        if (!ctl.generating() &&
            ctl.endCycle(now, net.quiescent(), net.lastDeliveryCycle(),
                         net.ledger().svcPending))
            break;
    }
    RunTrace t;
    t.end = now;
    t.measured = ctl.measuring() ? now - ctl.measureStart() : now;
    t.timedOut = now >= cfg.maxCycles;
    readCounters(net, t);
    return t;
}

RunTrace
simulate(const SimConfig &cfg, const std::vector<FaultSpec> &faults)
{
    Simulator sim(cfg, faults);
    const SimResult r = sim.run();
    RunTrace t;
    t.end = r.drainCycles;
    t.measured = r.cycles;
    t.timedOut = r.timedOut;
    readCounters(sim.network(), t);
    EXPECT_EQ(r.injected, t.injected);
    EXPECT_EQ(r.delivered, t.delivered);
    return t;
}

/** Two router-centric critical faults (Table 3) at fixed places. */
std::vector<FaultSpec>
twoCriticalFaults()
{
    FaultSpec va;
    va.node = 5;
    va.component = FaultComponent::VaArbiter;
    va.module = Module::Row;
    FaultSpec xbar;
    xbar.node = 10;
    xbar.component = FaultComponent::Crossbar;
    xbar.module = Module::Column;
    return {va, xbar};
}

TEST(ReplayTest, HandRolledLoopReproducesSimulatorRun)
{
    for (RouterArch arch : {RouterArch::Roco, RouterArch::Generic,
                            RouterArch::PathSensitive}) {
        for (bool closed : {false, true}) {
            for (bool faulty : {false, true}) {
                SimConfig cfg;
                cfg.meshWidth = 4;
                cfg.meshHeight = 4;
                cfg.arch = arch;
                cfg.routing = RoutingKind::XY;
                cfg.injectionRate = closed ? 0.3 : 0.2;
                cfg.svc.enabled = closed;
                cfg.warmupPackets = 100;
                cfg.measurePackets = 600;
                // Faulted XY strands packets: the idle window must end
                // both loops at the same cycle.
                cfg.maxCycles = 30000;
                const std::vector<FaultSpec> faults =
                    faulty ? twoCriticalFaults() : std::vector<FaultSpec>{};
                SCOPED_TRACE(std::string(toString(arch)) +
                             (closed ? " closed" : " open") +
                             (faulty ? " crit2" : " fault-free"));

                const RunTrace sim = simulate(cfg, faults);
                const RunTrace ref = replay(cfg, faults);
                EXPECT_EQ(ref.end, sim.end);
                EXPECT_EQ(ref.measured, sim.measured);
                EXPECT_EQ(ref.timedOut, sim.timedOut);
                EXPECT_EQ(ref.injected, sim.injected);
                EXPECT_EQ(ref.delivered, sim.delivered);
                EXPECT_TRUE(sameBytes(ref.ledger, sim.ledger));
                EXPECT_TRUE(sameBytes(ref.activity, sim.activity));
                EXPECT_EQ(ref.stepsExecuted, sim.stepsExecuted);
                EXPECT_EQ(ref.stepsScheduled, sim.stepsScheduled);
                EXPECT_GT(sim.delivered, 0u);
                // Both loops must also agree on how a run ends: RoCo
                // recycles around the faults and drains, while the
                // unified designs lose whole nodes, strand packets and
                // are cut by the idle window.
                EXPECT_EQ(sim.ledger.quiescent(),
                          !faulty || arch == RouterArch::Roco);
            }
        }
    }
}

} // namespace
} // namespace noc
