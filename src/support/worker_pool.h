/**
 * @file
 * Fixed-size worker pool with a bounded work queue.
 *
 * The pool executes opaque jobs on a fixed set of threads, started on
 * the first submit(): a pool that is never handed work starts and joins
 * no thread. Submission blocks once the queue holds `queueCapacity()`
 * pending jobs, so a fast producer cannot accumulate unbounded memory.
 * parallelForEach() is the high-level entry the hot paths use: it fans N
 * index-addressed jobs out over the pool and returns when all have
 * finished, rethrowing the first job exception in submission order. It
 * keeps jobs that report a small cost on the calling thread, where a
 * handoff would cost more than the job.
 *
 * Determinism contract: the pool itself never reorders *results* — jobs
 * must write only to their own output slot (index i of a pre-sized
 * vector). Callers then reduce the slots serially in input order, so any
 * observable outcome is independent of the thread count. Every parallel
 * consumer in the library (difftest, fuzz batches, profile runs)
 * follows this pattern and is covered by tests/test_parallel.cc.
 */

#ifndef HETEROGEN_SUPPORT_WORKER_POOL_H
#define HETEROGEN_SUPPORT_WORKER_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace heterogen {

/**
 * Resolve a thread-count request: n >= 1 is taken as-is; n <= 0 means
 * "use the environment default" — the HETEROGEN_JOBS environment
 * variable when set (an integer in [1, 1024]; anything else is a
 * FatalError), else the hardware concurrency, else 1.
 */
int resolveJobs(int requested);

/**
 * A fixed set of worker threads draining a bounded job queue. The
 * threads start together on the first submit() and are joined by the
 * destructor; until then the pool holds none.
 */
class WorkerPool
{
  public:
    /**
     * @param threads  worker count; <= 0 resolves via resolveJobs().
     *                 A pool of one thread still runs jobs on that
     *                 worker, never inline on the submitting thread.
     *                 No thread starts before the first submit().
     * @param queue_capacity  max pending (not yet started) jobs before
     *                        submit() blocks.
     */
    explicit WorkerPool(int threads = 0, size_t queue_capacity = 256);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue one job; blocks while the queue is full. The first call
     * starts the worker threads.
     */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /** The configured worker count, whether or not they started yet. */
    int threads() const { return threads_; }
    size_t queueCapacity() const { return capacity_; }

    /**
     * Worker threads started by every pool of the process so far: a
     * run that never handed a pool work leaves it unchanged.
     */
    static uint64_t threadsStarted();

  private:
    void workerLoop();

    int threads_;
    std::once_flag start_;
    std::vector<std::thread> workers_; ///< written once, under start_
    std::deque<std::function<void()>> queue_;
    size_t capacity_;
    size_t in_flight_ = 0; ///< queued + currently executing
    bool shutdown_ = false;
    std::mutex mu_;
    std::condition_variable job_ready_;  ///< workers: queue non-empty
    std::condition_variable job_space_;  ///< producers: queue has room
    std::condition_variable all_done_;   ///< wait(): in_flight == 0
};

/**
 * A batch of tasks on a shared pool with its own completion tracking.
 *
 * WorkerPool::wait() waits for *every* in-flight job, which couples
 * unrelated producers: two stages sharing one pool would each block on
 * the other's work. A TaskGroup counts only its own tasks, so many
 * concurrent producers (e.g. the conversion service's jobs) can share
 * one bounded pool and still wait independently. With a null pool (or
 * a single-threaded one) tasks run inline on the calling thread.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(WorkerPool *pool) : pool_(pool) {}
    /** Waits for any still-outstanding tasks. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Run one task on the pool (inline when the pool cannot help). */
    void run(std::function<void()> task);

    /** Block until every task run() by *this group* has finished. */
    void wait();

  private:
    WorkerPool *pool_;
    std::mutex mu_;
    std::condition_variable done_;
    size_t outstanding_ = 0;
};

/**
 * Run fn(0) .. fn(n-1) across the pool and wait for completion.
 *
 * fn must confine its writes to per-index state and returns its job's
 * cost. Jobs too small to hand off stay on the calling thread: they run
 * there, in order, while every cost so far is below `inline_below` (0:
 * none do), and the first job whose cost reaches it hands all later
 * ones to the pool. A throwing job counts as cheap. Every job runs, and
 * the first exception (lowest index) is rethrown on the calling thread
 * after all finish, so the outcome never depends on where a job ran.
 * With a null pool, runs serially inline. Waiting is per-call (a
 * TaskGroup), so concurrent parallelForEach calls may safely share one
 * pool.
 */
void parallelForEach(WorkerPool *pool, size_t n,
                     const std::function<uint64_t(size_t)> &fn,
                     uint64_t inline_below = 0);

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_WORKER_POOL_H
