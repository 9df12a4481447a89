/**
 * @file
 * Mesh partitioning for the sharded execution engine (src/par).
 *
 * Two pieces live here because they are both pure topology:
 *
 *  1. The *step schedule*: a pentachromatic (distance-2) colouring of
 *     the mesh. A router's step reads and writes state on itself and
 *     its four neighbours (the RoCo / path-sensitive designs run the
 *     receiver-side reserveInputVc handshake against the downstream
 *     router inside the same cycle: a path-sensitive quadrant VC may be
 *     claimed by any link feeding it, so the probe's answer depends on
 *     order; a RoCo VC has one writing link, so its probe never
 *     refuses, but the commit still writes the neighbour's reservation
 *     record), so two routers' steps can touch a common node whenever
 *     they are within Manhattan distance 2 of each other. phase(x, y) = (x + 2y) mod 5 puts any two nodes at
 *     distance <= 2 in different phases — the smallest nonzero (dx,
 *     dy) with dx + 2dy = 0 (mod 5) has |dx| + |dy| = 3 — so all steps
 *     inside one phase have disjoint footprints and commute exactly.
 *     Stepping phase 0..4 in order therefore yields the same network
 *     state no matter how the nodes of a phase are distributed over
 *     threads, which is what makes runs bit-identical at every shard
 *     count.
 *
 *  2. ShardPlan: a balanced partition of the node set into rectangular
 *     shards (one worker thread each), and the only owner of the step
 *     order: every cycle loop, the 1-shard one of Network::step
 *     included, steps a plan's phaseNodes (flattened by
 *     Network::schedule). The geometry is purely a
 *     locality knob — correctness comes from the schedule — so when a
 *     shard count has no rectangular factorisation that fits the mesh,
 *     the plan falls back to contiguous node-id ranges.
 */
#ifndef ROCOSIM_TOPOLOGY_PARTITION_H_
#define ROCOSIM_TOPOLOGY_PARTITION_H_

#include <vector>

#include "common/annotations.h"
#include "common/types.h"

namespace noc {

/** Phases in the conflict-free step schedule. */
inline constexpr int kNumStepPhases = 5;

/** Schedule phase of mesh coordinate (x, y); see the file header. */
inline constexpr int
stepPhase(int x, int y)
{
    return (x + 2 * y) % kNumStepPhases;
}

/**
 * Compile-time spot checks of the distance-2 property the whole
 * sharded engine rests on: no node shares a phase with any node at
 * Manhattan distance 1 or 2 (the footprint of one router step). The
 * file header proves it for the general case; these pin the formula
 * against an accidental edit of stepPhase.
 */
static_assert(stepPhase(2, 3) != stepPhase(3, 3) &&     // distance 1
                  stepPhase(2, 3) != stepPhase(2, 4) &&
                  stepPhase(2, 3) != stepPhase(4, 3) && // distance 2
                  stepPhase(2, 3) != stepPhase(2, 5) &&
                  stepPhase(2, 3) != stepPhase(3, 4) &&
                  stepPhase(2, 3) != stepPhase(1, 2),
              "stepPhase no longer separates the distance-2 "
              "neighbourhood; the pentachromatic schedule is broken");
static_assert(stepPhase(0, 0) == stepPhase(5, 0) &&
                  stepPhase(0, 0) == stepPhase(1, 2),
              "stepPhase must tile with period (5,0)/(1,2): same-phase "
              "nodes sit at Manhattan distance >= 3");

class ShardPlan
{
  public:
    /**
     * Partitions a @p width x @p height mesh into @p shards pieces
     * (clamped to [1, nodes]). Prefers a rows x cols shard grid with
     * rows * cols == shards that fits the mesh, choosing the
     * factorisation with the smallest worst-case shard; falls back to
     * contiguous id ranges when no rectangular grid fits.
     */
    NOC_PHASE_FN(setup)
    ShardPlan(int width, int height, int shards);

    int shards() const { return shards_; }
    int numNodes() const { return width_ * height_; }

    /** Shard owning node @p n. */
    int shardOf(NodeId n) const { return shardOf_[n]; }

    /** All nodes of @p shard, ascending id (the NIC generation order). */
    const std::vector<NodeId> &nodes(int shard) const
    {
        return nodes_[static_cast<std::size_t>(shard)];
    }

    /**
     * Nodes of @p shard in schedule phase @p phase, ascending id (the
     * router step order within the phase).
     */
    const std::vector<NodeId> &phaseNodes(int shard, int phase) const
    {
        return phaseNodes_[static_cast<std::size_t>(shard) * kNumStepPhases +
                           static_cast<std::size_t>(phase)];
    }

  private:
    // The plan is immutable after construction: every shard thread
    // reads it concurrently, so ownership is pinned to setup.
    NOC_OWNED_STATE(setup)
    int width_;
    NOC_OWNED_STATE(setup)
    int height_;
    NOC_OWNED_STATE(setup)
    int shards_;
    NOC_OWNED_STATE(setup)
    std::vector<int> shardOf_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> nodes_;
    NOC_OWNED_STATE(setup)
    std::vector<std::vector<NodeId>> phaseNodes_;
};

} // namespace noc

#endif // ROCOSIM_TOPOLOGY_PARTITION_H_
