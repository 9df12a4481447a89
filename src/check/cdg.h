/**
 * @file
 * Channel dependency graph (CDG) core: a dense directed graph over the
 * network's input-VC slots plus cycle detection.
 *
 * The deadlock-freedom prover (deadlock.h) enumerates every
 * (holding VC, requested VC) dependency a routing algorithm and VC
 * organisation can create and records each as an edge here.  The
 * classic result (Dally & Seitz) is that wormhole routing is
 * deadlock-free iff this graph is acyclic, so the analysis reduces to
 * SCC computation: any strongly connected component with an internal
 * edge yields a concrete counterexample cycle, which we extract
 * explicitly so the failure report can name every (router, VC class)
 * on the loop.
 */
#ifndef ROCOSIM_CHECK_CDG_H_
#define ROCOSIM_CHECK_CDG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace noc::check {

/**
 * Dense directed graph with O(1) idempotent edge insertion.
 *
 * Vertices are the extended-CDG slots, numbered
 * node * slotsPerNode + slot by the prover; adjacency is a bitset
 * matrix (a full 8x8 RoCo mesh has 768 vertices — 74 KiB of bits), so
 * the walker can re-add the same dependency from every walk without
 * bookkeeping, and a whole slot mask of successors goes in with one
 * word OR (addEdges).
 */
class Cdg
{
  public:
    explicit Cdg(int numVertices);

    void addEdge(int from, int to);
    /**
     * Adds from -> toBase + j for every set bit j of @p toMask: one OR
     * of the shifted mask into (at most two words of) the adjacency
     * row, with new edges counted by popcount.
     */
    void addEdges(int from, int toBase, std::uint64_t toMask);
    bool hasEdge(int from, int to) const;

    int numVertices() const { return n_; }
    std::size_t numEdges() const { return edges_; }

    /**
     * 64-bit digest of the adjacency words: equal digests mean
     * (up to hash collision) the same vertex count and edge set, which
     * is how the golden-proof test pins graph identity.
     */
    std::uint64_t digest() const;

    /**
     * One dependency cycle as an ordered vertex list (the closing edge
     * from back() to front() is implicit); empty when the graph is
     * acyclic.  Found via Tarjan SCC: any non-trivial component (or
     * self-loop) is turned into an explicit cycle by walking a DFS
     * spanning tree of the component back to its root.
     */
    std::vector<int> findCycle() const;

    /** Iterates the out-neighbours of @p from (tests / verification). */
    template <typename Fn>
    void
    forEachEdge(int from, Fn &&fn) const
    {
        const std::uint64_t *row = &adj_[static_cast<std::size_t>(from) *
                                        static_cast<std::size_t>(words_)];
        for (int w = 0; w < words_; ++w) {
            std::uint64_t bits = row[w];
            while (bits) {
                int b = countr_zero(bits);
                fn(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

  private:
    static int countr_zero(std::uint64_t v);
    /** ORs @p bits into @p word, counting the bits that were clear. */
    void orInto(std::uint64_t &word, std::uint64_t bits);

    int n_;
    int words_; ///< 64-bit words per adjacency row
    std::size_t edges_ = 0;
    std::vector<std::uint64_t> adj_; ///< n_ rows x words_ words
};

} // namespace noc::check

#endif // ROCOSIM_CHECK_CDG_H_
