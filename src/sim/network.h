/**
 * @file
 * Network: builds and owns the routers, NICs, channels, routing and
 * fault state for one mesh, and advances them cycle by cycle.
 */
#ifndef ROCOSIM_SIM_NETWORK_H_
#define ROCOSIM_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/config.h"
#include "fault/fault.h"
#include "par/race_check.h"
#include "power/energy_model.h"
#include "router/router.h"
#include "routing/routing.h"
#include "sim/nic.h"
#include "traffic/trace.h"
#include "topology/channel.h"
#include "topology/mesh.h"
#include "topology/partition.h"

namespace noc {

namespace par {
class SpinBarrier;
} // namespace par

class Network
{
  public:
    /**
     * Builds the mesh described by @p cfg with @p faults applied
     * statically at construction (the paper's static fault handling).
     */
    Network(const SimConfig &cfg,
            const std::vector<FaultSpec> &faults = {});
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Advances one cycle: one trip through stepShard() over the
     * network's own 1-shard schedule, then the race checker's cycle
     * validation. Simulator::run does not call this (it drives every
     * run through par::runSharded); it is the stand-alone single-cycle
     * entry for hand-rolled loops such as the liveness refinement.
     */
    NOC_PHASE_FN(engine)
    void step(Cycle now, bool generationEnabled, bool measured);

    /**
     * The router step order of one ShardPlan, resolved to pointers for
     * the cycle loop. The plan owns the order (topology/partition.h);
     * this is only its flat view: per shard, its NICs in ascending id
     * (the generation order) and, per schedule phase, its routers in
     * ascending id with their idle-skip flags.
     */
    struct StepSchedule {
        struct Entry {
            Router *r;
            std::atomic<std::uint8_t> *flag;
        };
        static_assert(std::is_trivially_copyable_v<Entry> &&
                          sizeof(Entry) == 2 * sizeof(void *),
                      "Entry is the cycle loop's inner stride; keep it "
                      "two raw pointers, nothing else");
        /** NICs of shard s: nics[nicOfs[s] .. nicOfs[s + 1]). */
        std::vector<Nic *> nics;
        std::vector<std::uint32_t> nicOfs;
        /** Routers of shard s, phase ph: steps[stepOfs[i] ..
         *  stepOfs[i + 1]) with i = s * kNumStepPhases + ph. */
        std::vector<Entry> steps;
        std::vector<std::uint32_t> stepOfs;
    };

    /** Flattens @p plan's step order over this network's nodes. */
    NOC_PHASE_FN(setup)
    StepSchedule schedule(const ShardPlan &plan);

    /** Router steps one shard executed and was scheduled to run. */
    struct StepCounts {
        std::uint64_t executed = 0;
        std::uint64_t scheduled = 0;
    };

    /**
     * The one cycle body: shard @p s of @p sched generates its NICs'
     * traffic, then steps its routers phase by phase of the
     * pentachromatic schedule, skipping idle routers when idle-skip is
     * on. Adds to @p counts and returns the packets generated.
     * Between phases it waits on @p phaseBarrier (null for a lone
     * caller), so a shard never starts phase p + 1 before every shard
     * has finished phase p.
     *
     * Inter-router channels are delay lines, but the RoCo /
     * path-sensitive reserveInputVc handshake acts on the neighbour
     * within the cycle, so the phase structure — not channel latency
     * alone — is what makes the step order canonical and the result
     * independent of how nodes are spread over shards.
     */
    NOC_PHASE_FN(engine)
    std::uint64_t stepShard(const StepSchedule &sched, int s, Cycle now,
                            bool generating, bool measuring,
                            StepCounts &counts,
                            par::SpinBarrier *phaseBarrier);

    const MeshTopology &topology() const { return topo_; }
    const SimConfig &config() const { return cfg_; }
    const FaultMap &faultMap() const { return *faults_; }

    Router &router(NodeId n) { return *routers_[n]; }
    const Router &router(NodeId n) const { return *routers_[n]; }
    Nic &nic(NodeId n) { return *nics_[n]; }
    const Nic &nic(NodeId n) const { return *nics_[n]; }
    int numNodes() const { return topo_.numNodes(); }

    /**
     * Attaches the shard-ownership race checker (null detaches). The
     * cycle loop only feeds it in NOC_RACE_CHECK builds; attaching is
     * always legal (see par/race_check.h).
     */
    void setRaceChecker(par::RaceChecker *rc) { race_ = rc; }
    par::RaceChecker *raceChecker() const { return race_; }

    /** Router steps actually executed (the skipped remainder of
     *  cycles * nodes is the idle-skip win). */
    std::uint64_t routerStepsExecuted() const { return steps_.executed; }
    /** Router step opportunities seen by the engine. */
    std::uint64_t routerStepsScheduled() const { return steps_.scheduled; }
    /** Folds a shard worker's step counts in; the skip decisions do not
     *  depend on the shard count, so neither do the totals. */
    NOC_PHASE_FN(epilogue)
    void addRouterSteps(const StepCounts &c)
    {
        steps_.executed += c.executed;
        steps_.scheduled += c.scheduled;
    }

    /** Base-1 generation counter: 1 + packets generated so far. */
    std::uint64_t packetsGenerated() const { return generatedBase1_; }

    /** Folds externally-counted generated packets in (sharded engine). */
    NOC_PHASE_FN(epilogue)
    void addGenerated(std::uint64_t n) { generatedBase1_ += n; }

    /** Trace traffic: true once every node's schedule has replayed. */
    bool traceExhausted() const;

    /** Flits anywhere in the network (buffers + links), excluding
     *  source queues; zero means fully drained. Full network walk —
     *  use quiescent() for the O(1) drain check. */
    int flitsInFlight() const;

    /**
     * O(1) drain check: true when every flit ever created has been
     * delivered or discarded (no flit in a source queue, router buffer
     * or link). Maintained incrementally by the NICs and routers.
     */
    bool quiescent() const { return ledger_.quiescent(); }

    /** The incremental flit lifecycle counters behind quiescent(). */
    const FlitLedger &ledger() const { return ledger_; }

    /**
     * Rebinds node @p n's router and NIC to ledger @p l (the sharded
     * engine gives every shard its own ledger so retirement counting
     * stays lock-free); null restores the network's master ledger.
     */
    void bindNodeLedger(NodeId n, FlitLedger *l);

    /**
     * Binds node @p n's NIC to latency lane @p lane (sim/nic.h),
     * creating lanes up to it on first use. The sharded engine binds
     * every node to its shard's lane and back to lane 0 afterwards;
     * lanes keep what they recorded, and Simulator::run merges them
     * all. Unlike the ledgers, lanes are never reduced per cycle.
     */
    void bindNodeLane(NodeId n, int lane);

    /** Latency lanes created so far (at least one). */
    int numLanes() const { return static_cast<int>(lanes_.size()); }
    const LatencyLane &lane(int i) const
    {
        return *lanes_[static_cast<std::size_t>(i)];
    }

    /** Overwrites the master ledger with reduced shard totals. */
    NOC_PHASE_FN(epilogue)
    void setLedgerTotals(const FlitLedger &l) { ledger_ = l; }

    /**
     * Attaches @p obs to every router and NIC (null detaches). The
     * flit-event hooks it feeds only exist under NOC_OBS=ON builds;
     * attaching is always legal (see obs/obs.h).
     */
    void setObserver(obs::Recorder *obs);

    /** Sums of per-node statistics. */
    std::uint64_t totalInjected() const;
    std::uint64_t totalInjectedMeasured() const;
    std::uint64_t totalDelivered() const;
    std::uint64_t totalDeliveredMeasured() const;
    Cycle lastDeliveryCycle() const;

    /** Aggregated router activity for the energy model. */
    ActivityCounters totalActivity() const;
    void resetActivity();
    void resetContention();

    /** Network-wide SA contention ratios (Figure 3). */
    RatioStat rowContention() const;
    RatioStat colContention() const;

    /**
     * Sweeps the protocol invariants that need a network-wide view
     * (src/check/invariant.h): per-link credit conservation and the
     * Table 3 fault-state consistency rules. Call between cycles —
     * the conservation equation is exact only when no router is
     * mid-step. No-op when invariants are compiled out or disabled.
     */
    void checkProtocolInvariants(Cycle now) const;

  private:
    NOC_PHASE_FN(setup) void build(const std::vector<FaultSpec> &faults);

    SimConfig cfg_;
    MeshTopology topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    std::unique_ptr<FaultMap> faults_;
    /** Flat channel array, two pairs per mesh edge (exact-reserved so
     *  the PortIo pointers handed to routers stay stable). */
    std::vector<ChannelPair> channels_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Nic>> nics_;
    std::unique_ptr<TraceSchedule> trace_;
    NOC_OWNED_STATE(engine, epilogue)
    std::uint64_t generatedBase1_ = 1;
    FlitLedger ledger_;
    /** Latency lanes; held by pointer so NIC bindings survive growth. */
    std::vector<std::unique_ptr<LatencyLane>> lanes_;
    /**
     * Per-node idle-skip flags. Set by anyone routing an event toward
     * the node (neighbour sends, local injection); cleared by
     * stepShard() after a step leaves the router with no local work.
     * Cross-shard by design, so they must stay lock-free atomics:
     * relaxed order suffices because every cross-thread edge is ordered
     * by a phase barrier, the flags only carry "wake up later", never
     * data, and a lock here would serialise every sender.
     */
    std::unique_ptr<std::atomic<std::uint8_t>[]> active_;
    static_assert(std::atomic<std::uint8_t>::is_always_lock_free,
                  "idle-skip wake flags are stored by neighbouring "
                  "shards mid-phase; a locking fallback would deadlock "
                  "the spin barrier's forward-progress assumption");
    bool idleSkip_ = true;
    NOC_OWNED_STATE(engine, epilogue)
    StepCounts steps_;
    /** Shard-ownership race checker, when attached (see race_check.h). */
    par::RaceChecker *race_ = nullptr;
    /** step()'s schedule: the 1-shard ShardPlan, flattened. */
    StepSchedule serial_;
};

/** Instantiates the router microarchitecture selected by @p cfg. */
std::unique_ptr<Router>
makeRouter(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
           const RoutingAlgorithm &routing, const FaultMap *faults);

} // namespace noc

#endif // ROCOSIM_SIM_NETWORK_H_
