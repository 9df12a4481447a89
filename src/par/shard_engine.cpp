#include "par/shard_engine.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "check/invariant.h"
#include "common/annotations.h"
#include "obs/recorder.h"
#include "par/barrier.h"
#include "topology/partition.h"

namespace noc::par {

namespace {

/** Per-shard cycle-local counter, padded against false sharing. */
struct alignas(64) ShardCount {
    std::uint64_t value = 0;
};

/** Everything the workers share; mutable fields are only written in
 *  the single-threaded barrier epilogue, and the barrier's release /
 *  acquire pair publishes them to every worker. */
struct Shared {
    Network &net;
    const SimConfig &cfg;
    const Network::StepSchedule sched;
    RunControl &ctl;
    obs::Recorder *obs;
    SpinBarrier barrier;
    std::vector<FlitLedger> ledgers;   // one per shard
    std::vector<ShardCount> generated; // this cycle, per shard
    std::vector<Network::StepCounts> steps; // whole run, per shard
    NOC_EPILOGUE_STATE
    Cycle now = 0;   // cycle the workers are about to run
    NOC_EPILOGUE_STATE
    bool stop = false;

    Shared(Network &n, const SimConfig &c, const ShardPlan &p,
           RunControl &rc, obs::Recorder *o)
        : net(n), cfg(c), sched(n.schedule(p)), ctl(rc), obs(o),
          barrier(p.shards()),
          ledgers(static_cast<std::size_t>(p.shards())),
          generated(static_cast<std::size_t>(p.shards())),
          steps(static_cast<std::size_t>(p.shards()))
    {
    }
};

/**
 * Top-of-cycle bookkeeping for cycle @p now: the warm-up / measure /
 * drain decision, and the probe reset when measurement opens.
 */
NOC_PHASE_FN(epilogue)
void
beginCycle(Shared &sh, Cycle now)
{
    if (sh.ctl.beginCycle(now, sh.net.traceExhausted(),
                          sh.net.packetsGenerated())) {
        sh.net.resetActivity();
        sh.net.resetContention();
    }
}

#ifndef NDEBUG
/**
 * Drain-time cross-check of the incremental counters against a full
 * network walk: the reduced ledger against the flits actually queued
 * or in flight, and every router's idle-skip work counter and
 * incoming-occupancy mirrors against its buffers and channels — a
 * drifting counter would silently freeze a router.
 */
void
auditCounters(const Network &net, const FlitLedger &sum)
{
    bool queued = false;
    for (int i = 0; i < net.numNodes() && !queued; ++i)
        queued = net.nic(static_cast<NodeId>(i)).queuedFlits() > 0;
    // Flit half of the ledger only: service mode also tracks
    // scheduled-not-yet-injected replies (svcPending), which no
    // network scan can see.
    NOC_ASSERT((sum.created == sum.retired) ==
                   (!queued && net.flitsInFlight() == 0),
               "flit ledger out of sync with network scan");
    for (int i = 0; i < net.numNodes(); ++i) {
        const Router &r = net.router(static_cast<NodeId>(i));
        NOC_ASSERT(r.workItems() == r.bufferedFlits(),
                   "idle-skip work counter out of sync with buffered "
                   "flits");
        NOC_ASSERT(r.pendMirrorsConsistent(),
                   "incoming-occupancy mirror out of sync with channel "
                   "in-flight count");
    }
}
#endif

/**
 * The end-of-cycle routine, run by the last barrier arriver while
 * every other worker is parked (with one shard, inline after the
 * cycle): reduces the per-shard generation counts and flit ledgers,
 * runs the periodic observability / invariant probes and audits, and
 * makes the stop / next-cycle decisions through RunControl.
 */
NOC_PHASE_FN(epilogue)
void
epilogue(Shared &sh)
{
#if NOC_RACE_CHECK_BUILT
    // Superstep validation runs here because the epilogue is the one
    // single-threaded window per cycle: every worker's lane writes are
    // published by its barrier arrival (acq_rel on the counter).
    if (par::RaceChecker *race = sh.net.raceChecker())
        race->endCycle(sh.now);
#endif
    std::uint64_t gen = 0;
    for (const ShardCount &g : sh.generated)
        gen += g.value;
    sh.net.addGenerated(gen);

    FlitLedger sum;
    for (const FlitLedger &l : sh.ledgers) {
        sum.created += l.created;
        sum.retired += l.retired;
        sum.flitCycles += l.flitCycles;
        sum.lastDelivery = std::max(sum.lastDelivery, l.lastDelivery);
        for (int c = 0; c < kNumMsgClasses; ++c) {
            sum.createdByClass[c] += l.createdByClass[c];
            sum.retiredByClass[c] += l.retiredByClass[c];
        }
        sum.svcPending += l.svcPending;
    }
    // The network's own ledger is written by nobody else during the
    // run, so it can carry the totals: the invariant sweep below and
    // anyone reading net.ledger() after the run see the live counts.
    sh.net.setLedgerTotals(sum);

    const Cycle done = sh.now + 1; // cycles completed

    // Coarse path-set occupancy probe; the period keeps its cost
    // negligible against the per-cycle work.
    NOC_OBS(if (sh.obs && (done & 255u) == 0)
                sh.obs->samplePathSetOccupancy(sh.net));
#if NOC_INVARIANTS_BUILT
    // Periodic network-wide protocol audit (credit conservation,
    // fault-state consistency).
    if ((done & 1023u) == 0 && check::invariantsEnabled())
        sh.net.checkProtocolInvariants(done);
#endif

    // Drain detection is O(1): the ledger counts every flit at
    // creation and retirement.
    bool stop = done >= sh.cfg.maxCycles;
    if (!sh.ctl.generating()) {
#ifndef NDEBUG
        if ((done & 63u) == 0)
            auditCounters(sh.net, sum);
#endif
        stop = stop || sh.ctl.endCycle(done, sum.quiescent(),
                                       sum.lastDelivery, sum.svcPending);
    }
    if (!stop)
        beginCycle(sh, done);
    sh.now = done;
    sh.stop = stop;
}

/** One worker's whole run: shard @p s of the plan. */
NOC_PHASE_FN(engine)
void
work(Shared &sh, int s)
{
    Network::StepCounts steps;
    // Cycle state is stable between barriers: the epilogue is the only
    // writer and it runs inside the previous cycle's last barrier.
    while (!sh.stop) {
        const Cycle now = sh.now;
        sh.generated[static_cast<std::size_t>(s)].value =
            sh.net.stepShard(sh.sched, s, now, sh.ctl.generating(),
                             sh.ctl.measuring(), steps, &sh.barrier);
        sh.barrier.arriveAndWait([&sh] { epilogue(sh); });
    }
    sh.steps[static_cast<std::size_t>(s)] = steps;
}

} // namespace

int
effectiveShards(const SimConfig &cfg, int numNodes)
{
    int shards = cfg.shards;
    if (shards == 0) {
        if (const char *v = std::getenv("NOC_SHARDS")) {
            long n = std::strtol(v, nullptr, 10);
            if (n >= 1)
                shards = static_cast<int>(n);
        }
    }
    return std::clamp(shards, 1, numNodes);
}

NOC_PHASE_FN(epilogue)
Cycle
runSharded(Network &net, const SimConfig &cfg, int shards,
           obs::Recorder *obs, RunControl &ctl)
{
    ShardPlan plan(cfg.meshWidth, cfg.meshHeight, shards);
    Shared sh(net, cfg, plan, ctl, obs);

#if NOC_RACE_CHECK_BUILT
    if (par::RaceChecker *race = net.raceChecker())
        race->beginRun(plan.shards());
#endif

    // Per-shard ledgers keep flit-lifecycle counting lock-free; the
    // epilogue reduces them into the master ledger every cycle, and
    // the nodes are bound back to it before returning. Latency lanes are per shard
    // for the same reason, but are only merged once, by Simulator::run.
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n) {
        net.bindNodeLedger(n, &sh.ledgers[static_cast<std::size_t>(
                                  plan.shardOf(n))]);
        net.bindNodeLane(n, plan.shardOf(n));
    }
    if (obs != nullptr) {
        std::vector<int> laneOf(static_cast<std::size_t>(net.numNodes()));
        for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
            laneOf[n] = plan.shardOf(n);
        obs->setShardLanes(plan.shards(), std::move(laneOf));
    }
#if NOC_INVARIANTS_BUILT
    // Warm the lazy env read before the pool shares it.
    check::invariantsEnabled();
#endif

    // Cycle 0's flags are decided before any step.
    beginCycle(sh, 0);

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(plan.shards() - 1));
    for (int s = 1; s < plan.shards(); ++s)
        workers.emplace_back([&sh, s] { work(sh, s); });
    work(sh, 0);
    for (std::thread &t : workers)
        t.join();

    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n) {
        net.bindNodeLedger(n, nullptr);
        net.bindNodeLane(n, 0);
    }
    for (const Network::StepCounts &c : sh.steps)
        net.addRouterSteps(c);

    return sh.now;
}

} // namespace noc::par
