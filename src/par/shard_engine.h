/**
 * @file
 * Deterministic bulk-synchronous engine: the one cycle loop every
 * simulation runs on, serial ones included.
 *
 * Partitions the mesh into rectangular shards (topology/partition.h)
 * and advances each shard on its own worker thread under per-cycle
 * barriers; with one shard the calling thread runs the whole cycle and
 * no thread is spawned. Within a cycle every worker runs
 * Network::stepShard: it generates its own NICs' traffic, then steps
 * its routers phase by phase of the pentachromatic schedule, with a
 * barrier between phases. Routers in one phase are at Manhattan
 * distance >= 3 from each other, so their step footprints — own state,
 * both directions of the attached channels, and the neighbour state
 * the RoCo / path-sensitive reserveInputVc handshake touches — are
 * disjoint: the steps commute, no worker ever observes another shard's
 * same-cycle state, and the result is bit-identical for any shard
 * count. Shards are a pure wall-clock knob.
 *
 * The last arriver at the final barrier of a cycle (the only party,
 * with one shard) runs the end-of-cycle epilogue single-threaded:
 * reduces the per-shard generation counts and flit ledgers, runs the
 * periodic observability / invariant probes and the NDEBUG counter
 * audits, and makes the warm-up/measure/drain decisions through
 * RunControl.
 */
#ifndef ROCOSIM_PAR_SHARD_ENGINE_H_
#define ROCOSIM_PAR_SHARD_ENGINE_H_

#include "common/annotations.h"
#include "common/config.h"
#include "sim/network.h"
#include "sim/run_control.h"

namespace noc::par {

/**
 * Shard count a run should use: cfg.shards, else the NOC_SHARDS
 * environment variable, else 1; clamped to [1, @p numNodes].
 */
int effectiveShards(const SimConfig &cfg, int numNodes);

/**
 * Runs @p net's whole warm-up/measure/drain protocol on @p shards
 * worker threads (the calling thread drives shard 0), leaving the
 * network and @p ctl in the same state at any shard count — the state
 * a hand-rolled RunControl loop around Network::step leaves them in.
 * Returns the cycles completed when the run stopped.
 * @p obs may be null; when present it is switched to per-shard lanes
 * for the rest of its lifetime (summaries merge back losslessly).
 */
NOC_PHASE_FN(epilogue)
Cycle runSharded(Network &net, const SimConfig &cfg, int shards,
                 obs::Recorder *obs, RunControl &ctl);

} // namespace noc::par

#endif // ROCOSIM_PAR_SHARD_ENGINE_H_
