/**
 * @file
 * Parallel scaling of the two pooled pipeline stages.
 *
 * Differential testing: throughput versus worker count, plus the
 * candidate-memo hit rate, on one subject. The campaign cost model
 * charges the critical path of round-robin test assignment across N
 * co-simulation sessions, so throughput (tests per simulated minute)
 * rises with N until the fixed session setup and the most loaded worker
 * dominate. The host-side pool runs the same evaluation for real;
 * results are byte-identical at every size (see tests/test_parallel.cc)
 * — only the clocks move.
 *
 * Fuzzing: host seconds and busy cores of the standard campaign on the
 * subjects whose fuzzing takes seconds (P3, P4, P9, S4) at 1, 2 and 4
 * threads, median of three runs. Busy cores is process CPU seconds over
 * wall seconds; kernel runs are nearly all of a campaign's CPU time.
 * The executions, suite size and simulated minutes are printed per
 * thread count and must not move.
 *
 * Small programs: the median host milliseconds per conversion (parse
 * through repair) of the 11 quick posts of generateForumCorpus(13,
 * 2022) — all but the loop-heavy ones — at default options, each
 * conversion with a fresh cache directory, beside the same conversions
 * on one thread, and the worker threads they started. Their runs stay
 * under interp::kParallelMinSteps, so they should run inline and start
 * none. Every report must equal the same conversion's report at one
 * thread, or the bench exits non-zero.
 *
 *   ./bench/parallel_scaling [--out BENCH_parallel.json] [--smoke]
 *
 * Prints one machine-readable JSON line and writes BENCH_parallel.json
 * (override with --out <path>) with the build type, core count and
 * HETEROGEN_JOBS the numbers were taken under. --smoke (CI golden job)
 * runs only the small-program section, each post once per thread
 * setting, and writes no file.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "repair/difftest.h"
#include "subjects/forum_corpus.h"
#include "support/worker_pool.h"

#ifndef HG_BUILD_TYPE
#define HG_BUILD_TYPE "unknown"
#endif

using namespace heterogen;

namespace {

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/** One subject's fuzz campaign at one thread count. */
struct FuzzPoint
{
    int threads = 0;
    double host_s = 0;
    double busy_cores = 0;
    int executions = 0;
    size_t suite = 0;
    double sim_minutes = 0;
};

FuzzPoint
measureFuzz(const subjects::Subject &subject, int threads)
{
    core::HeteroGen engine(subject.source);
    fuzz::FuzzOptions opts = bench::standardOptions(subject).fuzz;
    opts.host_function = subject.host;
    opts.threads = threads;
    std::vector<std::pair<double, double>> reps; // (wall, cpu)
    FuzzPoint point;
    point.threads = threads;
    for (int rep = 0; rep < 3; ++rep) {
        double cpu0 = cpuSeconds();
        auto t0 = std::chrono::steady_clock::now();
        fuzz::FuzzResult r = fuzz::fuzzKernel(
            engine.program(), subject.kernel, engine.sema(), opts);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        reps.push_back({wall, cpuSeconds() - cpu0});
        point.executions = r.executions;
        point.suite = r.suite.size();
        point.sim_minutes = r.sim_minutes;
    }
    std::sort(reps.begin(), reps.end());
    point.host_s = reps[1].first;
    point.busy_cores = reps[1].second / reps[1].first;
    return point;
}

/** The quick forum posts' conversions at default options. */
struct SmallPrograms
{
    int posts = 0;
    int conversions = 0; ///< per thread setting
    double host_ms_p50 = 0;
    double host_ms_p50_one_thread = 0;
    uint64_t threads_started = 0; ///< at default options
    int mismatches = 0;           ///< reports differing from one thread
};

/** One timed conversion, at default options or on one thread. */
core::HeteroGenReport
convertPost(const std::string &source, const std::filesystem::path &cache,
            bool one_thread, std::vector<double> &host_ms)
{
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.cache_dir = cache.string();
    if (one_thread) {
        opts.fuzz.threads = 1;
        opts.search.eval_threads = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(cache, ec); // a fresh cache each time
    auto t0 = std::chrono::steady_clock::now();
    core::HeteroGen hg(source);
    core::HeteroGenReport report = hg.run(opts);
    host_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    return report;
}

bool
sameReport(const core::HeteroGenReport &a, const core::HeteroGenReport &b)
{
    return a.hls_source == b.hls_source &&
           a.total_minutes == b.total_minutes &&
           a.trace_json == b.trace_json && a.ok() == b.ok();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

SmallPrograms
measureSmallPrograms(int reps)
{
    namespace fs = std::filesystem;
    fs::path cache = fs::temp_directory_path() /
                     ("hg-bench-small-" + std::to_string(::getpid()));
    SmallPrograms out;
    std::vector<double> ms, ms_one;
    for (const subjects::ForumPost &post :
         subjects::generateForumCorpus(13, 2022)) {
        if (post.ground_truth == hls::ErrorCategory::LoopParallelization)
            continue;
        out.posts += 1;
        for (int rep = 0; rep < reps; ++rep) {
            uint64_t started = WorkerPool::threadsStarted();
            core::HeteroGenReport report =
                convertPost(post.snippet, cache, false, ms);
            out.threads_started += WorkerPool::threadsStarted() - started;
            core::HeteroGenReport one =
                convertPost(post.snippet, cache, true, ms_one);
            if (!sameReport(report, one)) {
                std::fprintf(stderr,
                             "post %d: report differs from threads=1\n",
                             post.post_id);
                out.mismatches += 1;
            }
        }
    }
    std::error_code ec;
    fs::remove_all(cache, ec);
    out.conversions = out.posts * reps;
    out.host_ms_p50 = median(ms);
    out.host_ms_p50_one_thread = median(ms_one);
    std::printf("Small programs: %d quick forum posts x %d, default "
                "options, fresh cache dir each\n",
                out.posts, reps);
    std::printf("host ms/conversion p50 %.3f (one thread %.3f), worker "
                "threads started %llu, reports differing from one "
                "thread %d\n\n",
                out.host_ms_p50, out.host_ms_p50_one_thread,
                static_cast<unsigned long long>(out.threads_started),
                out.mismatches);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_parallel.json";
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a == "--smoke")
            smoke = true;
        else
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
    }

    const SmallPrograms small = measureSmallPrograms(smoke ? 1 : 15);
    if (smoke) {
        std::printf("{\"bench\":\"parallel_scaling\",\"smoke\":true,"
                    "\"small_programs\":{\"posts\":%d,"
                    "\"host_ms_p50\":%.3f,\"threads_started\":%llu,"
                    "\"mismatches\":%d}}\n",
                    small.posts, small.host_ms_p50,
                    static_cast<unsigned long long>(small.threads_started),
                    small.mismatches);
        return small.mismatches == 0 ? 0 : 1;
    }

    const subjects::Subject &subject = subjects::subjectById("P9");
    std::printf("Parallel candidate evaluation, subject %s (%s)\n\n",
                subject.id.c_str(), subject.name.c_str());

    // One pipeline run supplies the repaired candidate the scaling sweep
    // evaluates, and the search's memo counters.
    core::HeteroGen engine(subject.source);
    auto report = engine.run(bench::standardOptions(subject));
    const auto &memo = report.search.memo;
    const int tests = int(report.testgen.suite.size());
    std::printf("repair: compatible=%s  suite=%d tests  memo: %d hits / "
                "%d misses (hit rate %.0f%%)\n\n",
                bench::mark(report.ok()), tests, memo.hits(),
                memo.misses(), memo.hitRate() * 100.0);

    const int kJobs[] = {1, 2, 4, 8};
    double throughput[4] = {0};
    double sim_minutes[4] = {0};

    std::printf("%-8s %12s %14s %9s %10s\n", "workers", "sim(min)",
                "tests/simmin", "speedup", "wall(ms)");
    for (int j = 0; j < 4; ++j) {
        WorkerPool pool(kJobs[j]);
        repair::DiffTestOptions opts;
        opts.sim_workers = kJobs[j];
        opts.pool = &pool;
        auto start = std::chrono::steady_clock::now();
        auto result = repair::diffTest(engine.program(), subject.kernel,
                                       *report.search.program,
                                       report.search.config,
                                       report.testgen.suite, opts);
        double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        sim_minutes[j] = result.sim_minutes;
        throughput[j] = tests / result.sim_minutes;
        std::printf("%-8d %12.4f %14.1f %8.2fx %10.1f\n", kJobs[j],
                    sim_minutes[j], throughput[j],
                    sim_minutes[0] / sim_minutes[j], wall_ms);
    }

    std::printf("\nFuzz campaign scaling (median of 3)\n");
    std::printf("%-4s %8s %10s %11s %11s %7s %10s\n", "id", "threads",
                "host(s)", "busy cores", "executions", "suite",
                "sim(min)");
    const char *kFuzzSubjects[] = {"P3", "P4", "P9", "S4"};
    const int kFuzzThreads[] = {1, 2, 4};
    std::vector<std::pair<std::string, std::vector<FuzzPoint>>> fuzz_rows;
    for (const char *id : kFuzzSubjects) {
        const subjects::Subject &s = subjects::subjectById(id);
        std::vector<FuzzPoint> points;
        for (int threads : kFuzzThreads) {
            FuzzPoint p = measureFuzz(s, threads);
            std::printf("%-4s %8d %10.3f %11.2f %11d %7zu %10.4f\n", id,
                        threads, p.host_s, p.busy_cores, p.executions,
                        p.suite, p.sim_minutes);
            points.push_back(p);
        }
        fuzz_rows.push_back({id, points});
    }

    std::printf("\n{\"bench\":\"parallel_scaling\",\"subject\":\"%s\","
                "\"tests\":%d,"
                "\"throughput_per_simmin\":{\"1\":%.1f,\"2\":%.1f,"
                "\"4\":%.1f,\"8\":%.1f},"
                "\"speedup_4\":%.2f,"
                "\"memo_hits\":%d,\"memo_misses\":%d,"
                "\"memo_hit_rate\":%.3f}\n",
                subject.id.c_str(), tests, throughput[0], throughput[1],
                throughput[2], throughput[3],
                sim_minutes[0] / sim_minutes[2], memo.hits(),
                memo.misses(), memo.hitRate());

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    const char *jobs = std::getenv("HETEROGEN_JOBS");
    std::fprintf(f, "{\n  \"bench\": \"parallel_scaling\",\n");
    std::fprintf(f,
                 "  \"conditions\": {\"build_type\": \"%s\", "
                 "\"cores\": %u, \"heterogen_jobs\": \"%s\"},\n",
                 HG_BUILD_TYPE, std::thread::hardware_concurrency(),
                 jobs ? jobs : "");
    std::fprintf(f,
                 "  \"difftest\": {\"subject\": \"%s\", \"tests\": %d, "
                 "\"sim_minutes\": {\"1\": %.4f, \"2\": %.4f, "
                 "\"4\": %.4f, \"8\": %.4f}, \"memo_hits\": %d, "
                 "\"memo_misses\": %d},\n",
                 subject.id.c_str(), tests, sim_minutes[0], sim_minutes[1],
                 sim_minutes[2], sim_minutes[3], memo.hits(),
                 memo.misses());
    std::fprintf(f,
                 "  \"small_programs\": {\"posts\": %d, "
                 "\"conversions\": %d, \"options\": \"default, fresh "
                 "cache dir each\", \"host_ms_p50\": %.3f, "
                 "\"host_ms_p50_threads_1\": %.3f, "
                 "\"worker_threads_started\": %llu, "
                 "\"reports_differing_from_threads_1\": %d},\n",
                 small.posts, small.conversions, small.host_ms_p50,
                 small.host_ms_p50_one_thread,
                 static_cast<unsigned long long>(small.threads_started),
                 small.mismatches);
    std::fprintf(f, "  \"fuzz\": [\n");
    for (size_t i = 0; i < fuzz_rows.size(); ++i) {
        const auto &[id, points] = fuzz_rows[i];
        const FuzzPoint &one = points.front();
        std::fprintf(f,
                     "    {\"id\": \"%s\", \"executions\": %d, "
                     "\"suite\": %zu, \"sim_minutes\": %.4f, ",
                     id.c_str(), one.executions, one.suite,
                     one.sim_minutes);
        for (size_t j = 0; j < points.size(); ++j) {
            std::fprintf(f,
                         "\"threads_%d\": {\"host_s\": %.3f, "
                         "\"busy_cores\": %.2f}%s",
                         points[j].threads, points[j].host_s,
                         points[j].busy_cores,
                         j + 1 < points.size() ? ", " : "");
        }
        std::fprintf(f, "}%s\n", i + 1 < fuzz_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return small.mismatches == 0 ? 0 : 1;
}
