/**
 * @file
 * WorkerPool: deterministic fork/join semantics — every task runs once,
 * exception handling independent of thread count, the
 * MONATT_THREADS override.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/worker_pool.h"

namespace monatt::sim
{
namespace
{

TEST(WorkerPoolTest, SingleThreadRunsInline)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, ZeroSelectsHardwareConcurrency)
{
    WorkerPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(WorkerPoolTest, EveryTaskRunsExactlyOnce)
{
    WorkerPool pool(4);
    std::atomic<int> runs{0};
    std::vector<std::atomic<int>> perIndex(64);
    pool.parallelFor(64, [&](std::size_t i) {
        ++runs;
        ++perIndex[i];
    });
    EXPECT_EQ(runs.load(), 64);
    for (const auto &c : perIndex)
        EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPoolTest, LowestFailingIndexWinsAtAnyWidth)
{
    for (std::size_t threads : {1u, 4u}) {
        WorkerPool pool(threads);
        std::atomic<int> runs{0};
        try {
            pool.parallelFor(16, [&](std::size_t i) {
                ++runs;
                if (i == 3 || i == 11)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 3")
                << "the first failing index must win";
        }
        // All tasks still ran: the work done never depends on the
        // thread count, even in the failure path.
        EXPECT_EQ(runs.load(), 16);
    }
}

TEST(WorkerPoolTest, EmptyAndSingleItemJobs)
{
    WorkerPool pool(4);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
    int hits = 0;
    pool.parallelFor(1, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits, 1);
}

TEST(WorkerPoolTest, SequentialJobsReuseWorkers)
{
    WorkerPool pool(4);
    for (int job = 0; job < 50; ++job) {
        std::vector<int> out(8, 0);
        pool.parallelFor(8, [&](std::size_t i) {
            out[i] = static_cast<int>(i) + job;
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i) + job);
    }
}

TEST(WorkerPoolTest, ResolveThreadsHonorsEnvOverride)
{
    unsetenv("MONATT_THREADS");
    EXPECT_EQ(WorkerPool::resolveThreads(3), 3u);
    EXPECT_EQ(WorkerPool::resolveThreads(0), 0u);

    setenv("MONATT_THREADS", "6", 1);
    EXPECT_EQ(WorkerPool::resolveThreads(3), 6u);
    EXPECT_EQ(WorkerPool::resolveThreads(0), 6u);

    setenv("MONATT_THREADS", "garbage", 1);
    EXPECT_EQ(WorkerPool::resolveThreads(3), 3u);
    setenv("MONATT_THREADS", "0", 1);
    EXPECT_EQ(WorkerPool::resolveThreads(3), 3u);
    unsetenv("MONATT_THREADS");
}

TEST(WorkerPoolTest, ConfigureGlobalResizes)
{
    // The requested sizes must hold, so a MONATT_THREADS inherited from
    // the environment (the suite also runs under one) is set aside.
    const char *inherited = std::getenv("MONATT_THREADS");
    const std::string saved = inherited != nullptr ? inherited : "";
    unsetenv("MONATT_THREADS");
    WorkerPool::configureGlobal(2);
    EXPECT_EQ(WorkerPool::global().threadCount(), 2u);
    WorkerPool::configureGlobal(1);
    EXPECT_EQ(WorkerPool::global().threadCount(), 1u);
    if (inherited != nullptr)
        setenv("MONATT_THREADS", saved.c_str(), 1);
}

} // namespace
} // namespace monatt::sim
