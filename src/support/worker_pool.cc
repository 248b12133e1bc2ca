#include "support/worker_pool.h"

#include <algorithm>
#include <atomic>

#include "support/env.h"

namespace heterogen {

namespace {

std::atomic<uint64_t> threads_started{0};

} // namespace

int
resolveJobs(int requested)
{
    if (requested >= 1)
        return requested;
    if (auto n = readEnvKnob("HETEROGEN_JOBS", "an integer in [1, 1024]",
                             [](const std::string &v) {
                                 return parseUnsigned(v, 1, 1024);
                             }))
        return static_cast<int>(*n);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

WorkerPool::WorkerPool(int threads, size_t queue_capacity)
    : threads_(resolveJobs(threads)),
      capacity_(std::max<size_t>(queue_capacity, 1))
{
}

WorkerPool::~WorkerPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    job_ready_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

uint64_t
WorkerPool::threadsStarted()
{
    return threads_started.load();
}

void
WorkerPool::submit(std::function<void()> job)
{
    std::call_once(start_, [this] {
        workers_.reserve(static_cast<size_t>(threads_));
        for (int i = 0; i < threads_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
        threads_started += static_cast<uint64_t>(threads_);
    });
    {
        std::unique_lock<std::mutex> lock(mu_);
        job_space_.wait(lock,
                        [this] { return queue_.size() < capacity_; });
        queue_.push_back(std::move(job));
        in_flight_ += 1;
    }
    job_ready_.notify_one();
}

void
WorkerPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            job_ready_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // shutdown with a drained queue
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job_space_.notify_one();
        job();
        {
            std::unique_lock<std::mutex> lock(mu_);
            in_flight_ -= 1;
            if (in_flight_ == 0)
                all_done_.notify_all();
        }
    }
}

TaskGroup::~TaskGroup()
{
    wait();
}

void
TaskGroup::run(std::function<void()> task)
{
    if (!pool_ || pool_->threads() <= 1) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        outstanding_ += 1;
    }
    pool_->submit([this, task = std::move(task)] {
        task();
        {
            std::lock_guard<std::mutex> lock(mu_);
            outstanding_ -= 1;
            if (outstanding_ == 0)
                done_.notify_all();
        }
    });
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return outstanding_ == 0; });
}

void
parallelForEach(WorkerPool *pool, size_t n,
                const std::function<uint64_t(size_t)> &fn,
                uint64_t inline_below)
{
    // Every job runs to completion and the lowest-index exception wins,
    // so reruns at any thread count surface the same error.
    std::vector<std::exception_ptr> errors(n);
    auto run = [&](size_t i) -> uint64_t {
        try {
            return fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
            return 0;
        }
    };
    size_t next = 0;
    for (bool cheap = inline_below > 0; cheap && next < n; ++next)
        cheap = run(next) < inline_below;
    TaskGroup group(pool);
    for (; next < n; ++next)
        group.run([&run, next] { run(next); });
    group.wait();
    for (size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace heterogen
