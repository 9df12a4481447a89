/**
 * @file
 * Centralised sense-reversing spin barrier for the sharded engine.
 *
 * The engine erects a handful of barriers per simulated cycle, so the
 * barrier must be cheap when the workers are genuinely parallel —
 * hence spinning on an epoch counter instead of a futex — yet not
 * pathological when the host has fewer cores than shards, hence the
 * early fallback to yield() once the pool oversubscribes the machine.
 *
 * The last arriver may run an epilogue functor *inside* the barrier:
 * every other party is still parked on the epoch at that point, so the
 * epilogue executes strictly single-threaded between cycles (the
 * engine uses this for its reductions and run-control updates). The
 * release store on the epoch publishes everything the epilogue wrote
 * to every waiter's subsequent acquire load. A one-party barrier (the
 * 1-shard engine every serial run uses) just runs the epilogue: there
 * is nobody to wait for or publish to, so it touches no atomic.
 */
#ifndef ROCOSIM_PAR_BARRIER_H_
#define ROCOSIM_PAR_BARRIER_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/log.h"

namespace noc::par {

class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties)
        : parties_(parties),
          spinFriendly_(static_cast<unsigned>(parties) <=
                        std::thread::hardware_concurrency())
    {
        NOC_ASSERT(parties > 0, "barrier needs at least one party");
    }

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    /**
     * Blocks until all parties have arrived; the last arriver runs
     * @p epilogue alone before releasing the others.
     */
    template <typename Fn>
    void
    arriveAndWait(Fn &&epilogue)
    {
        // Ordering argument (audited in DESIGN section 14; the
        // ShardBarrierTest tsan suite exercises every edge):
        //
        //   * the relaxed epoch read needs no ordering: it only picks
        //     the value the subsequent acquire loads compare against,
        //     and epoch_ is monotonic, so a stale read can only make
        //     the waiter spin one extra iteration.
        //   * arrived_.fetch_add must be acq_rel. The release half
        //     publishes this worker's phase writes (router state,
        //     race-checker lanes) to the last arriver that runs the
        //     epilogue; the acquire half makes the last arriver's RMW
        //     the sync point that sees *every* earlier party's writes
        //     before the epilogue reads them.
        //   * the arrived_ reset can be relaxed: only the epilogue
        //     runner writes it while all other parties are parked, and
        //     the epoch release below sequences it before any later
        //     fetch_add from the released waiters.
        //   * epoch_.store(release) / epoch_.load(acquire) is the
        //     hand-off that publishes everything the single-threaded
        //     epilogue wrote (sh.now / sh.stop / sh.totals — the
        //     NOC_EPILOGUE_STATE members) to every waiter's next cycle.
        if (parties_ == 1) {
            // A lone party is its own last arriver, with nothing to
            // publish to anyone: the epilogue is all there is.
            epilogue();
            return;
        }
        std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            epilogue();
            arrived_.store(0, std::memory_order_relaxed);
            epoch_.store(epoch + 1, std::memory_order_release);
            return;
        }
        int spins = 0;
        while (epoch_.load(std::memory_order_acquire) == epoch) {
            // Brief spin on truly-parallel hosts; immediately give the
            // core away when the pool is oversubscribed (the missing
            // arrival can only happen on this core then).
            if (!spinFriendly_ || ++spins > kSpinLimit)
                std::this_thread::yield();
        }
    }

    void
    arriveAndWait()
    {
        arriveAndWait([] {});
    }

  private:
    static constexpr int kSpinLimit = 4096;

    const int parties_;
    const bool spinFriendly_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> epoch_{0};
    static_assert(std::atomic<int>::is_always_lock_free &&
                      std::atomic<std::uint64_t>::is_always_lock_free,
                  "a locking atomic would let the arrival RMW block "
                  "while peers spin on the epoch — the barrier's "
                  "forward-progress argument assumes lock-free both");
};

} // namespace noc::par

#endif // ROCOSIM_PAR_BARRIER_H_
