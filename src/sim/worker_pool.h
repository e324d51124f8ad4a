/**
 * @file
 * Deterministic fork/join pool for construction-time key generation.
 *
 * The simulation kernel is single-clocked: every event executes on the
 * driver thread in a deterministic order, and each entity does its
 * crypto inline on the event that needs it. The one place the pool
 * runs is core::Cloud construction, which derives every entity's
 * long-term RSA keys (independent, deterministic per entity) as one
 * parallelFor. The contract:
 *
 *  - Only pure compute runs on the pool. A task may read state the
 *    driver thread published before the fork and write only its own
 *    index-addressed output slot.
 *  - parallelFor() returns only after every task completed. The first
 *    failing index wins when rethrowing.
 *  - Every task always runs, even after another task threw, so a run
 *    with threads=1 and a run with threads=8 perform the identical
 *    work.
 *
 * With `threads <= 1` no worker threads exist and tasks run inline on
 * the caller, bit-identical to any other thread count by construction.
 */

#ifndef MONATT_SIM_WORKER_POOL_H
#define MONATT_SIM_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace monatt::sim
{

/** Fixed-size thread pool with deterministic fork/join semantics. */
class WorkerPool
{
  public:
    /**
     * @param threads Pool size. 0 selects std::thread::hardware_concurrency();
     *                1 (or a 1-core host) runs everything inline on the
     *                caller with no worker threads.
     */
    explicit WorkerPool(std::size_t threads = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Effective thread count (>= 1; 1 means inline serial execution). */
    std::size_t threadCount() const { return threadsWanted; }

    /**
     * Run fn(0..n-1), blocking until all complete (fork/join barrier).
     * The caller participates in executing tasks. Exceptions are
     * captured per index; after the join the exception of the lowest
     * failing index is rethrown, regardless of thread count.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Process-wide pool used by Cloud construction.
     *
     * Cloud construction calls configureGlobal() with
     * CloudConfig::computeThreads (the MONATT_THREADS environment
     * variable, when set, overrides the requested size). Reconfiguring
     * joins the old workers first; call it only between simulations,
     * never from inside a task.
     */
    static WorkerPool &global();
    static void configureGlobal(std::size_t threads);

    /** Requested size after the MONATT_THREADS override, 0 untouched. */
    static std::size_t resolveThreads(std::size_t requested);

  private:
    struct Job
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::vector<std::exception_ptr> errors;
        std::mutex mu;
        std::condition_variable cv;
        bool complete = false;
    };

    void workerLoop();
    static void drain(Job &job);
    static void runInline(std::size_t n,
                          const std::function<void(std::size_t)> &fn);
    static void rethrowFirst(const std::vector<std::exception_ptr> &errors);

    std::size_t threadsWanted = 1;
    std::vector<std::thread> workers;

    std::mutex mu;
    std::condition_variable cv;
    std::shared_ptr<Job> current; //!< guarded by mu
    std::uint64_t generation = 0; //!< guarded by mu
    bool stopping = false;        //!< guarded by mu
};

} // namespace monatt::sim

#endif // MONATT_SIM_WORKER_POOL_H
