/** @file Thread-count invariance of the parallel evaluation layers.
 *
 * The worker pool must be an execution detail only: for any fixed seed,
 * differential testing and fuzzing produce byte-identical outcomes at 1,
 * 2 and 8 host threads. These are the determinism properties the repair
 * search's reproducibility (golden traces, replayable experiments)
 * rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <regex>
#include <thread>

#include "cir/parser.h"
#include "cir/sema.h"
#include "core/heterogen.h"
#include "fuzz/fuzzer.h"
#include "repair/difftest.h"
#include "subjects/forum_corpus.h"
#include "subjects/subjects.h"
#include "support/run_context.h"
#include "support/worker_pool.h"

namespace heterogen {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

cir::TuPtr
program(const std::string &src)
{
    auto tu = cir::parse(src);
    cir::analyzeOrDie(*tu);
    return tu;
}

fuzz::FuzzResult
runFuzz(cir::TranslationUnit &tu, const fuzz::FuzzOptions &options)
{
    cir::SemaResult sema = cir::analyzeOrDie(tu);
    return fuzz::fuzzKernel(tu, "kernel", sema, options);
}

// --- worker pool ---------------------------------------------------------

TEST(WorkerPool, RunsEverySubmittedJob)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, BoundedQueueBlocksWithoutDeadlock)
{
    // Queue of 2 with 50 jobs: submit() must block-and-drain, never
    // drop or deadlock.
    WorkerPool pool(2, 2);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(WorkerPool, WaitIsReusableAcrossBatches)
{
    WorkerPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { count += 1; });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

/** Live threads of this process, read from /proc/self/task. */
size_t
liveThreads()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        n += 1;
    return n;
}

TEST(WorkerPool, StartsNoThreadBeforeFirstSubmit)
{
    size_t before = liveThreads();
    uint64_t started = WorkerPool::threadsStarted();
    WorkerPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    EXPECT_EQ(liveThreads(), before);
    EXPECT_EQ(WorkerPool::threadsStarted(), started);
    pool.wait(); // nothing submitted: returns at once

    std::atomic<int> count{0};
    pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    EXPECT_EQ(liveThreads(), before + 4);
    EXPECT_EQ(WorkerPool::threadsStarted(), started + 4);
    // Later submits reuse the same threads.
    for (int i = 0; i < 20; ++i)
        pool.submit([&count] { count += 1; });
    pool.wait();
    EXPECT_EQ(count.load(), 21);
    EXPECT_EQ(WorkerPool::threadsStarted(), started + 4);
}

TEST(WorkerPool, UnusedPoolIsDestroyedCleanly)
{
    size_t before = liveThreads();
    uint64_t started = WorkerPool::threadsStarted();
    for (int threads : kThreadCounts) {
        WorkerPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        TaskGroup group(&pool); // an empty group waits for nothing
    }
    EXPECT_EQ(liveThreads(), before);
    EXPECT_EQ(WorkerPool::threadsStarted(), started);
}

TEST(ParallelForEach, VisitsEachIndexExactlyOnce)
{
    for (int threads : kThreadCounts) {
        WorkerPool pool(threads);
        std::vector<int> visits(257, 0);
        parallelForEach(&pool, visits.size(), [&](size_t i) {
            visits[i] += 1;
            return uint64_t{0};
        });
        EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 257);
        for (int v : visits)
            EXPECT_EQ(v, 1);
    }
}

TEST(ParallelForEach, NullPoolRunsInline)
{
    std::vector<int> visits(10, 0);
    parallelForEach(nullptr, visits.size(), [&](size_t i) {
        visits[i] += 1;
        return uint64_t{0};
    });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ParallelForEach, RethrowsLowestIndexException)
{
    WorkerPool pool(4);
    try {
        parallelForEach(&pool, 16, [&](size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("boom " + std::to_string(i));
            return uint64_t{0};
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 3");
    }
}

TEST(ParallelForEach, RunsInlineUntilTheFirstCostlyJob)
{
    // Jobs 0-4 are cheap and run on the calling thread; job 5 is costly
    // and also runs there, but hands every later job to the pool.
    const std::thread::id caller = std::this_thread::get_id();
    for (int threads : kThreadCounts) {
        WorkerPool pool(threads);
        std::vector<int> visits(16, 0);
        std::vector<std::thread::id> ran_on(16);
        parallelForEach(
            &pool, visits.size(),
            [&](size_t i) {
                visits[i] += 1;
                ran_on[i] = std::this_thread::get_id();
                return i == 5 ? uint64_t{100} : 1;
            },
            100);
        SCOPED_TRACE("threads " + std::to_string(threads));
        for (int v : visits)
            EXPECT_EQ(v, 1);
        for (size_t i = 0; i <= 5; ++i)
            EXPECT_EQ(ran_on[i], caller) << "job " << i;
        // A one-thread pool runs its tasks inline (TaskGroup).
        for (size_t i = 6; threads > 1 && i < visits.size(); ++i)
            EXPECT_NE(ran_on[i], caller) << "job " << i;
    }
}

TEST(ParallelForEach, CheapJobsStartNoThread)
{
    uint64_t started = WorkerPool::threadsStarted();
    WorkerPool pool(4);
    std::vector<int> visits(32, 0);
    parallelForEach(
        &pool, visits.size(),
        [&](size_t i) {
            visits[i] += 1;
            return uint64_t{99};
        },
        100);
    for (int v : visits)
        EXPECT_EQ(v, 1);
    EXPECT_EQ(WorkerPool::threadsStarted(), started);
}

TEST(ParallelForEach, LowestIndexExceptionWinsInlineAndPooled)
{
    // Costly job `switch_at` splits the jobs into an inline prefix and
    // a pooled rest; wherever the throwing jobs fall, every job runs and
    // the lowest-index exception surfaces.
    struct Case
    {
        uint64_t inline_below;
        size_t switch_at;
        std::vector<size_t> throwing;
        const char *expected;
    };
    const Case cases[] = {
        {100, 5, {3, 11}, "boom 3"}, // inline and pooled throw
        {100, 5, {11, 3}, "boom 3"}, // listed out of order
        {100, 1, {7, 12}, "boom 7"}, // pooled only
        {100, 15, {2, 9}, "boom 2"}, // inline only
        {100, 3, {3, 4}, "boom 3"},  // a throw counts as cheap
        {0, 0, {3, 11}, "boom 3"},   // pooled from the start
    };
    for (const Case &c : cases) {
        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            std::vector<std::atomic<int>> visits(16);
            SCOPED_TRACE("switch at " + std::to_string(c.switch_at) +
                         ", threads " + std::to_string(threads));
            try {
                parallelForEach(
                    &pool, visits.size(),
                    [&](size_t i) {
                        visits[i] += 1;
                        for (size_t t : c.throwing) {
                            if (i == t)
                                throw std::runtime_error(
                                    "boom " + std::to_string(i));
                        }
                        return i == c.switch_at ? uint64_t{100} : 1;
                    },
                    c.inline_below);
                ADD_FAILURE() << "expected an exception";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), c.expected);
            }
            for (const std::atomic<int> &v : visits)
                EXPECT_EQ(v.load(), 1);
        }
    }
}

TEST(ResolveJobs, ExplicitRequestWinsOverEnvironment)
{
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_EQ(resolveJobs(1), 1);
}

TEST(ResolveJobs, ReadsHeterogenJobsEnvironment)
{
    setenv("HETEROGEN_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5);
    setenv("HETEROGEN_JOBS", "not-a-number", 1);
    EXPECT_THROW(resolveJobs(0), FatalError); // bad values are loud
    unsetenv("HETEROGEN_JOBS");
    EXPECT_GE(resolveJobs(0), 1);
}

// --- difftest invariance -------------------------------------------------

const char *kOriginal = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
)";

/** Same kernel, diverging for a[i] > 100 — some tests fail, some pass. */
const char *kDivergent = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 100) { acc += a[i] * 2 + 1; }
            else if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
)";

/** A deterministic suite seeded from one fuzzing campaign. */
fuzz::TestSuite
suiteForSeed(cir::TranslationUnit &tu, uint64_t seed)
{
    fuzz::FuzzOptions options;
    options.rng_seed = seed;
    options.max_executions = 120;
    options.mutations_per_input = 8;
    options.min_suite_size = 24;
    options.max_steps_per_run = 100000;
    options.threads = 1;
    return runFuzz(tu, options).suite;
}

void
expectSameDiffTest(const repair::DiffTestResult &a,
                   const repair::DiffTestResult &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.identical, b.identical);
    EXPECT_EQ(a.failing, b.failing);
    // Exact binary equality: the reduce happens serially in input
    // order, so even float accumulation cannot differ.
    EXPECT_EQ(a.cpu_millis, b.cpu_millis);
    EXPECT_EQ(a.fpga_millis, b.fpga_millis);
    EXPECT_EQ(a.sim_minutes, b.sim_minutes);
}

TEST(ParallelDiffTest, ByteIdenticalAcrossThreadCounts)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    int seeds_with_agreement = 0;
    int seeds_with_divergence = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz::TestSuite suite = suiteForSeed(*orig, seed);
        ASSERT_GE(suite.size(), 8u) << "seed " << seed;

        repair::DiffTestOptions serial_opts;
        auto serial = repair::diffTest(*orig, "kernel", *cand, config, suite,
                               serial_opts);
        seeds_with_agreement += serial.identical > 0 ? 1 : 0;
        seeds_with_divergence += serial.failing.empty() ? 0 : 1;

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            repair::DiffTestOptions opts;
            opts.pool = &pool;
            auto parallel = repair::diffTest(*orig, "kernel", *cand, config,
                                     suite, opts);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectSameDiffTest(serial, parallel);
        }
    }
    // The property is only meaningful if the sweep saw both outcomes.
    EXPECT_GT(seeds_with_agreement, 0);
    EXPECT_GT(seeds_with_divergence, 0);
}

TEST(ParallelDiffTest, SimWorkersChangeOnlySimulatedCost)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    fuzz::TestSuite suite = suiteForSeed(*orig, 3);

    auto serial = repair::diffTest(*orig, "kernel", *cand, config, suite);
    repair::DiffTestOptions opts;
    opts.sim_workers = 4;
    auto fleet = repair::diffTest(*orig, "kernel", *cand, config, suite, opts);

    EXPECT_EQ(serial.identical, fleet.identical);
    EXPECT_EQ(serial.failing, fleet.failing);
    EXPECT_EQ(serial.cpu_millis, fleet.cpu_millis);
    EXPECT_EQ(serial.fpga_millis, fleet.fpga_millis);
    EXPECT_LT(fleet.sim_minutes, serial.sim_minutes)
        << "four modeled co-sim sessions must beat one";
}

// --- fuzzing invariance --------------------------------------------------

void
expectSameFuzz(const fuzz::FuzzResult &a, const fuzz::FuzzResult &b)
{
    EXPECT_EQ(a.executions, b.executions);
    EXPECT_EQ(a.sim_minutes, b.sim_minutes);
    EXPECT_EQ(a.last_progress_minutes, b.last_progress_minutes);
    EXPECT_EQ(a.coverage.hitCount(), b.coverage.hitCount());
    EXPECT_EQ(a.coverage.coverage(), b.coverage.coverage());
    EXPECT_EQ(a.suite.maxRunSteps(), b.suite.maxRunSteps());
    ASSERT_EQ(a.suite.size(), b.suite.size());
    for (size_t i = 0; i < a.suite.size(); ++i) {
        EXPECT_EQ(a.suite[i].args, b.suite[i].args)
            << "corpus diverged at index " << i;
    }
}

TEST(ParallelFuzz, SameCorpusAndCoverageAcrossThreadCounts)
{
    auto tu = program(kOriginal);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz::FuzzOptions options;
        options.rng_seed = seed;
        options.max_executions = 150;
        options.mutations_per_input = 8;
        options.min_suite_size = 16;
        options.max_steps_per_run = 100000;

        options.threads = 1;
        auto serial = runFuzz(*tu, options);
        ASSERT_GT(serial.executions, 0);

        for (int threads : kThreadCounts) {
            options.threads = threads;
            auto parallel = runFuzz(*tu, options);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectSameFuzz(serial, parallel);
        }
    }
}

// --- look-ahead fuzz batches ----------------------------------------------

/**
 * Every way a campaign stops must leave the same corpus and trace at
 * any thread count: threads=1 launches nothing ahead, so it is the
 * one-batch-at-a-time reference for the look-ahead runs at 2 and 8.
 */
struct Campaign
{
    fuzz::FuzzResult result;
    std::string trace_json;
    int64_t interp_runs = 0;
};

/** The kernel plus a host entry whose run supplies the seed. */
const char *kHosted = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
    int host() {
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = i * 3; }
        return kernel(a, 5);
    }
)";

/** kHosted's branches sixteen times over: every run is heavy. */
const char *kHeavyHosted = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int r = 0; r < 16; r++) {
            for (int i = 0; i < 8; i++) {
                if (a[i] > 64) { acc += a[i] * 2; }
                else if (a[i] < -10) { acc -= a[i]; }
                else { acc += i; }
            }
        }
        int j = 0;
        while (j < n % 7) { acc += j * j; j++; }
        return acc;
    }
    int host() {
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = i * 3; }
        return kernel(a, 5);
    }
)";

/**
 * Heavy-tailed, like the forum's `for (i < n) tmp += i` posts: the
 * host's seed is light, and mutated inputs with a large `n` are heavy.
 */
const char *kHeavyTailed = R"(
    int kernel(int a[8], int n) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
            if (a[i] > 64) { acc += a[i] * 2; }
            else if (a[i] < -10) { acc -= a[i]; }
            else { acc += i; }
        }
        int tmp = 0;
        for (int i = 0; i < n % 512; i++) { tmp += i; }
        return acc + tmp;
    }
    int host() {
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = i * 3; }
        return kernel(a, 5);
    }
)";

/** Where a campaign's kernel runs execute. */
enum class RunPath
{
    Inline,   ///< every run is light: all stay on the calling thread
    Pool,     ///< the seed run is heavy: batches go to the pool
    Switches, ///< light until a mutated input proves heavy
};

struct HostedProgram
{
    const char *name;
    const char *source;
    RunPath path;
};

const HostedProgram kHostedPrograms[] = {
    {"light", kHosted, RunPath::Inline},
    {"heavy", kHeavyHosted, RunPath::Pool},
    {"heavy-tailed", kHeavyTailed, RunPath::Switches},
};

Campaign
runCampaign(cir::TranslationUnit &tu, const fuzz::FuzzOptions &options,
            RunContext &ctx)
{
    cir::SemaResult sema = cir::analyzeOrDie(tu);
    Campaign c;
    c.result = fuzz::fuzzKernel(ctx, tu, "kernel", sema, options);
    c.trace_json = ctx.traceJson();
    c.interp_runs = ctx.trace().root().counterTotal("interp.runs");
    return c;
}

Campaign
runCampaign(cir::TranslationUnit &tu, const fuzz::FuzzOptions &options)
{
    RunContext ctx;
    return runCampaign(tu, options, ctx);
}

fuzz::FuzzOptions
lookAheadOptions(uint64_t seed)
{
    fuzz::FuzzOptions options;
    options.host_function = "host";
    options.rng_seed = seed;
    options.mutations_per_input = 8;
    options.min_suite_size = 16;
    options.max_steps_per_run = 100000;
    options.max_executions = 100000;
    options.budget_minutes = 1e9;
    options.plateau_minutes = 1e9;
    return options;
}

/**
 * The campaign at every thread count equals the one-thread `serial`,
 * and hands runs to its pool (starting its threads) exactly when it
 * meets a heavy run.
 */
void
expectSameCampaigns(const fuzz::FuzzOptions &base, cir::TranslationUnit &tu,
                    const Campaign &serial, RunPath path)
{
    for (int threads : kThreadCounts) {
        fuzz::FuzzOptions options = base;
        options.threads = threads;
        uint64_t started = WorkerPool::threadsStarted();
        Campaign c = runCampaign(tu, options);
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectSameFuzz(serial.result, c.result);
        EXPECT_EQ(c.trace_json, serial.trace_json);
        // A one-thread pool runs its tasks inline (TaskGroup).
        if (threads > 1)
            EXPECT_EQ(WorkerPool::threadsStarted() > started,
                      path != RunPath::Inline);
    }
}

/** Check that a campaign took the path its program is meant to take. */
void
expectRunPath(const cir::TranslationUnit &tu,
              const fuzz::FuzzOptions &options,
              const fuzz::FuzzResult &result, RunPath path)
{
    interp::Interpreter interp(tu);
    interp::RunOptions opts;
    opts.max_steps = options.max_steps_per_run;
    // The seed is always the suite's first case.
    uint64_t seed_steps =
        interp.run("kernel", result.suite[0].args, opts).steps;
    uint64_t max_steps = result.suite.maxRunSteps();
    EXPECT_GE(max_steps, seed_steps);
    switch (path) {
      case RunPath::Inline:
        EXPECT_LT(max_steps, interp::kParallelMinSteps);
        break;
      case RunPath::Pool:
        EXPECT_GE(seed_steps, interp::kParallelMinSteps);
        break;
      case RunPath::Switches:
        EXPECT_LT(seed_steps, interp::kParallelMinSteps);
        EXPECT_GE(max_steps, interp::kParallelMinSteps);
        break;
    }
}

TEST(LookAheadFuzz, CapReachedMidBatchStopsIdentically)
{
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto tu = program(hp.source);
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            fuzz::FuzzOptions options = lookAheadOptions(seed);
            options.max_executions = 150; // the seed + 18 batches + 5 runs
            options.threads = 1;
            Campaign serial = runCampaign(*tu, options);
            ASSERT_EQ(serial.result.executions, 150);
            SCOPED_TRACE("seed " + std::to_string(seed));
            expectRunPath(*tu, options, serial.result, hp.path);
            expectSameCampaigns(options, *tu, serial, hp.path);
        }
    }
}

TEST(LookAheadFuzz, PlateauStopsIdenticallyAndDropsSpeculativeRuns)
{
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto tu = program(hp.source);
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            fuzz::FuzzOptions options = lookAheadOptions(seed);
            options.plateau_minutes = 0.5;
            options.threads = 1;
            Campaign serial = runCampaign(*tu, options);
            ASSERT_LT(serial.result.executions, options.max_executions);
            ASSERT_GT(serial.result.sim_minutes -
                          serial.result.last_progress_minutes,
                      options.plateau_minutes);
            SCOPED_TRACE("seed " + std::to_string(seed));
            expectRunPath(*tu, options, serial.result, hp.path);
            expectSameCampaigns(options, *tu, serial, hp.path);
            // A plateau stop happens only between batches, so every
            // committed batch was bookkept whole: the host run, the
            // seed and the executions are all the runs there are —
            // batches launched ahead of the stop left no count.
            for (int threads : kThreadCounts) {
                options.threads = threads;
                Campaign c = runCampaign(*tu, options);
                EXPECT_EQ(c.interp_runs, 1 + c.result.executions)
                    << "threads " << threads;
            }
        }
    }
}

TEST(LookAheadFuzz, BudgetStopsIdentically)
{
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto tu = program(hp.source);
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            fuzz::FuzzOptions options = lookAheadOptions(seed);
            options.budget_minutes = 1.0;
            options.threads = 1;
            Campaign serial = runCampaign(*tu, options);
            ASSERT_LT(serial.result.executions, options.max_executions);
            ASSERT_GE(serial.result.sim_minutes, options.budget_minutes);
            SCOPED_TRACE("seed " + std::to_string(seed));
            expectRunPath(*tu, options, serial.result, hp.path);
            expectSameCampaigns(options, *tu, serial, hp.path);
        }
    }
}

/** The fuzz span's counters without the interpreter's run counts. */
std::map<std::string, int64_t>
countersWithoutRuns(const RunContext &ctx)
{
    std::map<std::string, int64_t> counters =
        ctx.trace().root().find("fuzz")->counters;
    for (const char *key :
         {"interp.runs", "interp.steps", "interp.execs.bytecode"})
        counters.erase(key);
    return counters;
}

TEST(LookAheadFuzz, CancelKeepsTheSerialPrefix)
{
    // A cancel lands wherever the host's timing puts it, but it is
    // checked exactly where the execution cap is: the campaign it cuts
    // must equal a one-thread campaign capped at the executions it
    // committed.
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto tu = program(hp.source);
        fuzz::FuzzOptions options = lookAheadOptions(1);
        options.max_executions = 4000;
        options.threads = 1;
        Campaign full = runCampaign(*tu, options);
        ASSERT_EQ(full.result.executions, options.max_executions);
        expectRunPath(*tu, options, full.result, hp.path);

        for (int threads : kThreadCounts) {
            fuzz::FuzzOptions cancelled_opts = options;
            cancelled_opts.threads = threads;
            RunContext ctx;
            std::atomic<bool> done{false};
            std::thread canceller([&] {
                while (!done.load() &&
                       ctx.now() < full.result.sim_minutes / 10)
                    std::this_thread::yield();
                ctx.requestCancel();
            });
            Campaign cancelled = runCampaign(*tu, cancelled_opts, ctx);
            done.store(true);
            canceller.join();
            SCOPED_TRACE("threads " + std::to_string(threads));
            ASSERT_LT(cancelled.result.executions, full.result.executions);

            fuzz::FuzzOptions capped_opts = options;
            capped_opts.max_executions = cancelled.result.executions;
            RunContext capped_ctx;
            Campaign capped = runCampaign(*tu, capped_opts, capped_ctx);
            expectSameFuzz(capped.result, cancelled.result);
            EXPECT_EQ(countersWithoutRuns(ctx),
                      countersWithoutRuns(capped_ctx));
            // Unlike a cap, a cancel can land after the loop head let a
            // batch commit but before its first run was bookkept; that
            // batch's runs still count, so only then may one more batch
            // of runs show.
            const int batch = options.mutations_per_input;
            int64_t extra = cancelled.interp_runs - capped.interp_runs;
            bool on_boundary =
                (cancelled.result.executions - 1) % batch == 0;
            EXPECT_TRUE(extra == 0 || (on_boundary && extra == batch))
                << extra << " extra runs at "
                << cancelled.result.executions << " executions";
        }
    }
}

// --- profile invariance ---------------------------------------------------

/** The one-profile serial loop profileUnderSuite fans out. */
interp::ValueProfile
serialProfile(RunContext &ctx, const cir::TranslationUnit &tu,
              const std::string &kernel, const fuzz::TestSuite &suite)
{
    interp::ValueProfile profile;
    interp::Interpreter interp(tu);
    for (const fuzz::TestCase &test : suite.cases()) {
        interp::RunOptions opts;
        opts.profile = &profile;
        opts.trace = &ctx;
        interp.run(kernel, test.args, opts);
    }
    return profile;
}

TEST(ParallelProfile, SameProfileAndCountersOnEverySubjectSuite)
{
    std::vector<subjects::Subject> all = subjects::allSubjects();
    for (const subjects::Subject &s : subjects::streamingSubjects())
        all.push_back(s);
    for (const subjects::Subject &s : all) {
        SCOPED_TRACE(s.id);
        core::HeteroGen hg(s.source);
        fuzz::FuzzOptions fopts;
        fopts.host_function = s.host;
        fopts.rng_seed = s.fuzz_seed;
        fopts.max_executions = 120;
        fopts.mutations_per_input = 12;
        fopts.min_suite_size = 16;
        fopts.max_steps_per_run = 400000;
        fopts.threads = 1;
        fuzz::TestSuite suite =
            fuzz::fuzzKernel(hg.program(), s.kernel, hg.sema(), fopts)
                .suite;
        ASSERT_GT(suite.size(), 0u);

        RunContext serial_ctx;
        interp::ValueProfile serial;
        {
            SpanScope span(serial_ctx, "profile");
            serial = serialProfile(serial_ctx, hg.program(), s.kernel, suite);
        }
        ASSERT_FALSE(serial.ranges().empty());
        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            RunContext ctx;
            interp::ValueProfile parallel;
            {
                SpanScope span(ctx, "profile");
                parallel = core::profileUnderSuite(ctx, hg.program(),
                                                   s.kernel, suite, &pool);
            }
            SCOPED_TRACE("threads " + std::to_string(threads));
            EXPECT_TRUE(parallel == serial);
            EXPECT_EQ(ctx.traceJson(), serial_ctx.traceJson());
        }
    }
}

// --- inline profile and difftest runs ------------------------------------

/**
 * The same cases without the fuzz campaign's step record, as a suite
 * written by hand: its runs start inline and switch to the pool at the
 * first heavy case — mid-loop when the seed case is light.
 */
fuzz::TestSuite
handBuilt(const fuzz::TestSuite &suite)
{
    fuzz::TestSuite copy;
    for (const fuzz::TestCase &test : suite.cases())
        copy.add(test.args);
    return copy;
}

/** One fuzzed and one hand-built suite of a hosted program. */
std::vector<fuzz::TestSuite>
pathSuites(cir::TranslationUnit &tu)
{
    fuzz::FuzzOptions options = lookAheadOptions(2);
    options.max_executions = 120;
    options.threads = 1;
    fuzz::TestSuite fuzzed = runCampaign(tu, options).result.suite;
    fuzz::TestSuite copy = handBuilt(fuzzed);
    EXPECT_EQ(copy.maxRunSteps(), 0u);
    return {fuzzed, copy};
}

TEST(InlineRuns, ProfileSameOnEveryPath)
{
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto tu = program(hp.source);
        for (const fuzz::TestSuite &suite : pathSuites(*tu)) {
            SCOPED_TRACE("max run steps " +
                         std::to_string(suite.maxRunSteps()));
            RunContext serial_ctx;
            interp::ValueProfile serial;
            {
                SpanScope span(serial_ctx, "profile");
                serial = serialProfile(serial_ctx, *tu, "kernel", suite);
            }
            for (int threads : kThreadCounts) {
                uint64_t started = WorkerPool::threadsStarted();
                WorkerPool pool(threads);
                RunContext ctx;
                interp::ValueProfile profile;
                {
                    SpanScope span(ctx, "profile");
                    profile = core::profileUnderSuite(ctx, *tu, "kernel",
                                                      suite, &pool);
                }
                SCOPED_TRACE("threads " + std::to_string(threads));
                EXPECT_TRUE(profile == serial);
                EXPECT_EQ(ctx.traceJson(), serial_ctx.traceJson());
                if (hp.path == RunPath::Inline)
                    EXPECT_EQ(WorkerPool::threadsStarted(), started);
            }
        }
    }
}

TEST(InlineRuns, DiffTestSameOnEveryPath)
{
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    for (const HostedProgram &hp : kHostedPrograms) {
        SCOPED_TRACE(hp.name);
        auto orig = program(hp.source);
        // Diverges for a[i] > 100, so some tests fail and some pass.
        std::string divergent = hp.source;
        const std::string from = "acc += a[i] * 2;";
        divergent.replace(divergent.find(from), from.size(),
                          "acc += a[i] > 100 ? a[i] * 2 + 1 : a[i] * 2;");
        auto cand = program(divergent);
        for (const fuzz::TestSuite &suite : pathSuites(*orig)) {
            SCOPED_TRACE("max run steps " +
                         std::to_string(suite.maxRunSteps()));
            RunContext serial_ctx;
            auto serial = repair::diffTest(serial_ctx, *orig, "kernel",
                                           *cand, config, suite,
                                           repair::DiffTestOptions{});
            EXPECT_GT(serial.identical, 0);
            EXPECT_FALSE(serial.failing.empty());
            for (int threads : kThreadCounts) {
                uint64_t started = WorkerPool::threadsStarted();
                WorkerPool pool(threads);
                repair::DiffTestOptions opts;
                opts.pool = &pool;
                RunContext ctx;
                auto result = repair::diffTest(ctx, *orig, "kernel", *cand,
                                               config, suite, opts);
                SCOPED_TRACE("threads " + std::to_string(threads));
                expectSameDiffTest(serial, result);
                EXPECT_EQ(ctx.traceJson(), serial_ctx.traceJson());
                if (hp.path == RunPath::Inline)
                    EXPECT_EQ(WorkerPool::threadsStarted(), started);
            }
        }
    }
}

TEST(LazyPool, QuickForumPostConversionStartsNoWorkerThread)
{
    // Default options: the run's own fuzz/profile pool and the repair
    // search's pool are both created, and neither is ever handed work.
    int quick = 0;
    for (const subjects::ForumPost &post :
         subjects::generateForumCorpus(13, 2022)) {
        if (post.ground_truth == hls::ErrorCategory::LoopParallelization)
            continue; // the loop-heavy posts fan out
        quick += 1;
        SCOPED_TRACE("post " + std::to_string(post.post_id));
        core::HeteroGen hg(post.snippet);
        core::HeteroGenOptions options;
        options.kernel = "kernel";
        size_t threads_before = liveThreads();
        std::vector<size_t> at_stage;
        options.stage_hook = [&](const std::string &) {
            at_stage.push_back(liveThreads());
        };
        uint64_t started = WorkerPool::threadsStarted();
        core::HeteroGenReport report = hg.run(options);
        EXPECT_LT(report.testgen.suite.maxRunSteps(),
                  interp::kParallelMinSteps);
        EXPECT_EQ(WorkerPool::threadsStarted(), started);
        EXPECT_FALSE(at_stage.empty());
        for (size_t live : at_stage)
            EXPECT_EQ(live, threads_before);
    }
    EXPECT_EQ(quick, 11);
}

// --- trace invariance ----------------------------------------------------

/**
 * The RunContext trace must be as thread-count invariant as the results
 * it observes: charges happen on the driving thread in input order, and
 * counters are integer sums, so the whole span tree — minutes bit for
 * bit, counters, nesting — serializes identically at 1, 2 and 8 host
 * threads.
 */
TEST(ParallelTrace, FuzzTraceJsonIdenticalAcrossThreadCounts)
{
    auto tu = program(kOriginal);
    cir::SemaResult sema = cir::analyzeOrDie(*tu);
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        fuzz::FuzzOptions options;
        options.rng_seed = seed;
        options.max_executions = 150;
        options.mutations_per_input = 8;
        options.min_suite_size = 16;
        options.max_steps_per_run = 100000;

        options.threads = 1;
        RunContext serial_ctx;
        fuzz::fuzzKernel(serial_ctx, *tu, "kernel", sema, options);
        std::string serial_json = serial_ctx.traceJson();

        for (int threads : kThreadCounts) {
            options.threads = threads;
            RunContext ctx;
            fuzz::fuzzKernel(ctx, *tu, "kernel", sema, options);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(ctx.traceJson(), serial_json);
        }
    }
}

TEST(ParallelTrace, DiffTestTraceJsonIdenticalAcrossThreadCounts)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        fuzz::TestSuite suite = suiteForSeed(*orig, seed);

        RunContext serial_ctx;
        repair::diffTest(serial_ctx, *orig, "kernel", *cand, config,
                         suite, repair::DiffTestOptions{});
        std::string serial_json = serial_ctx.traceJson();

        for (int threads : kThreadCounts) {
            WorkerPool pool(threads);
            repair::DiffTestOptions opts;
            opts.pool = &pool;
            RunContext ctx;
            repair::diffTest(ctx, *orig, "kernel", *cand, config, suite,
                             opts);
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(ctx.traceJson(), serial_json);
        }
    }
}

// --- original runs kept across a search's campaigns ----------------------

/**
 * The trace without interp.bytecode.compiles: the one counter a kept
 * original run does not repeat (the original compiles once per cache).
 */
std::string
withoutCompiles(const std::string &json)
{
    static const std::regex counter(
        R"("interp\.bytecode\.compiles":[0-9]+,?)");
    return std::regex_replace(std::regex_replace(json, counter, ""),
                              std::regex(",\\}"), "}");
}

int64_t
compiles(const RunContext &ctx)
{
    return ctx.trace().root().counter("interp.bytecode.compiles");
}

TEST(DiffTestReuse, CampaignSequenceMatchesFreshCampaigns)
{
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    for (const HostedProgram &hp : kHostedPrograms) {
        if (hp.path == RunPath::Switches)
            continue; // the light and the heavy kernel
        SCOPED_TRACE(hp.name);
        auto orig = program(hp.source);
        std::string divergent = hp.source;
        const std::string from = "acc += a[i] * 2;";
        divergent.replace(divergent.find(from), from.size(),
                          "acc += a[i] > 100 ? a[i] * 2 + 1 : a[i] * 2;");
        auto cand = program(divergent);
        fuzz::TestSuite suite = pathSuites(*orig).front();
        ASSERT_GE(suite.size(), 4u);
        // A revisit, a smaller sample that leaves runs unkept, and the
        // whole suite again: every campaign must read as a fresh one.
        struct Step
        {
            const cir::TranslationUnit *candidate;
            int max_tests;
        };
        const Step steps[] = {{cand.get(), 3},
                              {orig.get(), 0},
                              {cand.get(), 0},
                              {cand.get(), 2}};
        for (int threads : kThreadCounts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            WorkerPool pool(threads);
            repair::OriginalRuns kept(*orig, "kernel", suite);
            for (size_t k = 0; k < std::size(steps); ++k) {
                SCOPED_TRACE("campaign " + std::to_string(k));
                repair::DiffTestOptions opts;
                opts.pool = &pool;
                opts.max_tests = steps[k].max_tests;
                RunContext fresh_ctx;
                auto fresh =
                    repair::diffTest(fresh_ctx, *orig, "kernel",
                                     *steps[k].candidate, config, suite,
                                     opts);
                RunContext ctx;
                auto reused = repair::diffTest(ctx, kept,
                                               *steps[k].candidate, config,
                                               opts);
                expectSameDiffTest(fresh, reused);
                EXPECT_EQ(withoutCompiles(ctx.traceJson()),
                          withoutCompiles(fresh_ctx.traceJson()));
            }
            EXPECT_EQ(kept.cached(), suite.size());
        }
    }
}

TEST(DiffTestReuse, ToolFailureCampaignLeavesTheCacheEmpty)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    fuzz::TestSuite suite = suiteForSeed(*orig, 1);
    repair::OriginalRuns kept(*orig, "kernel", suite);

    RunContext failing;
    FaultPlan plan;
    plan.rules.push_back(
        FaultRule{"difftest.cosim", 1.0, FaultKind::Transient, -1});
    failing.installFaults(plan, RetryPolicy::none());
    auto failed = repair::diffTest(failing, kept, *cand, config,
                                   repair::DiffTestOptions{});
    EXPECT_TRUE(failed.tool_failure);
    EXPECT_EQ(kept.cached(), 0u);
    EXPECT_EQ(failing.trace().root().counter("interp.runs"), 0);

    RunContext ctx;
    auto ok = repair::diffTest(ctx, kept, *cand, config,
                               repair::DiffTestOptions{});
    EXPECT_FALSE(ok.tool_failure);
    EXPECT_EQ(kept.cached(), suite.size());
}

TEST(DiffTestReuse, OneCandidateCompilePerCampaign)
{
    auto orig = program(kOriginal);
    auto cand = program(kDivergent);
    hls::HlsConfig config = hls::HlsConfig::forTop("kernel");
    fuzz::TestSuite suite = suiteForSeed(*orig, 2);
    ASSERT_GE(suite.size(), 8u);

    // A campaign on its own: the original and the candidate, once each
    // however many tests run.
    RunContext fresh;
    repair::diffTest(fresh, *orig, "kernel", *cand, config, suite,
                     repair::DiffTestOptions{});
    EXPECT_EQ(compiles(fresh), 2);

    // A search's campaigns: the original once, the candidate once per
    // campaign.
    repair::OriginalRuns kept(*orig, "kernel", suite);
    for (int k = 0; k < 3; ++k) {
        RunContext ctx;
        repair::diffTest(ctx, kept, *cand, config,
                         repair::DiffTestOptions{});
        EXPECT_EQ(compiles(ctx), k == 0 ? 2 : 1) << "campaign " << k;
        EXPECT_EQ(ctx.trace().root().counter("interp.runs"),
                  2 * int64_t(suite.size()));
    }
}

} // namespace
} // namespace heterogen
