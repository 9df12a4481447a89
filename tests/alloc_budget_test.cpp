/**
 * @file
 * Heap budget of building a Network, per node.
 *
 * This executable replaces the global operator new with a counting
 * one and asserts that constructing a 16x16 Network allocates no more
 * than a fixed number of bytes per node, per router architecture, for
 * open- and closed-loop traffic. The budgets sit about 15% above what
 * the build allocates today, so per-node state that grows by a
 * histogram's worth (a Histogram is 8.2 KB, an obs::HdrHistogram
 * 4.1 KB) fails here instead of silently costing every sweep point its
 * memory.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/network.h"

namespace {

std::atomic<std::uint64_t> gAllocated{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    gAllocated.fetch_add(n, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// The array forms default to these, so replacing the single forms
// counts every allocation.
void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace noc {
namespace {

/** Heap bytes requested while building a 16x16 network, per node. */
double
bytesPerNode(RouterArch arch, bool closedLoop)
{
    SimConfig cfg;
    cfg.meshWidth = cfg.meshHeight = 16;
    cfg.arch = arch;
    cfg.svc.enabled = closedLoop;
    const std::uint64_t before = gAllocated.load();
    double perNode = 0;
    {
        Network net(cfg);
        perNode = static_cast<double>(gAllocated.load() - before) /
                  net.numNodes();
    }
    std::printf("%s %s: %.0f bytes/node\n", toString(arch),
                closedLoop ? "closed-loop" : "open-loop", perNode);
    return perNode;
}

struct Budget {
    RouterArch arch;
    double openLoop;   ///< bytes per node
    double closedLoop; ///< bytes per node
};

TEST(AllocBudgetTest, NetworkBytesPerNodeStayUnderBudget)
{
    const Budget budgets[] = {
        {RouterArch::Generic, 12500, 14800},
        {RouterArch::PathSensitive, 13100, 15300},
        {RouterArch::Roco, 13000, 15300},
    };
    for (const Budget &b : budgets) {
        for (bool closed : {false, true}) {
            const double budget = closed ? b.closedLoop : b.openLoop;
            const double used = bytesPerNode(b.arch, closed);
            const char *mode = closed ? "closed-loop" : "open-loop";
            EXPECT_LE(used, budget) << toString(b.arch) << " " << mode;
            // A figure far below the budget means the counter missed
            // allocations or the budget is stale: lower it.
            EXPECT_GT(used, 0.5 * budget)
                << toString(b.arch) << " " << mode;
        }
    }
}

} // namespace
} // namespace noc
