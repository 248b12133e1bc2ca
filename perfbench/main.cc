/**
 * @file
 * End-to-end benchmark of the HeteroGen pipeline, measured from
 * outside the library.
 *
 *   hg_perfbench --workload subjects|forum|service --seed N
 *                --seconds S --trace 0|1
 *
 * Every number is taken around calls into public entry points: wall
 * time (steady_clock), process CPU time and peak RSS (getrusage), the
 * HeteroGenOptions::stage_hook boundaries, and the counters that each
 * HeteroGenReport::trace_json exports. Nothing inside the library is
 * instrumented.
 *
 * --trace 0 converts the whole workload once, re-converting its quick
 * items in rounds spread over the run for about S more seconds (the
 * service: drains the schedule until S seconds have passed), and
 * prints the end-to-end metrics. --trace 1 runs every
 * conversion twice, untraced then traced (after one untraced drain for
 * the service workload), proves the reports byte-identical, replays
 * every final program through the layer entry points, and prints the
 * per-layer metrics. Either way the last line of stdout is one JSON object
 * {"correct", "attempted", "failed", "metrics"}; artifacts (conditions,
 * per-program rows, Chrome trace) go to .bench_out/ under the working
 * directory. See perfbench/README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/common.h"
#include "cir/printer.h"
#include "fuzz/fuzzer.h"
#include "hls/compiler.h"
#include "hls/synth_check.h"
#include "interp/interp.h"
#include "repair/difftest.h"
#include "service/service.h"
#include "stylecheck/stylecheck.h"
#include "subjects/forum_corpus.h"
#include "support/trace.h"
#include "support/worker_pool.h"

extern char **environ;

namespace heterogen::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** Forum posts per pass: the smallest draw whose paper category mix
 * holds two loop-heavy posts, the workload's slow mode. */
constexpr int kForumPosts = 13;
/** Corpus seed the cache_warmup bench draws its forum phase with. */
constexpr uint64_t kForumCorpusSeed = 2022;
/** Jobs in the replayed multi-tenant schedule: the first third of
 * service_throughput's 240, one drain of about 15 s on 4 cores with
 * the tree-walk default engine. */
constexpr int kServiceJobs = 80;
/** Cold start-ups timed per run; setup_s is their median. */
constexpr int kSetupSamples = 21;
/** Held-out inputs compared per converted program. */
constexpr size_t kHeldOutInputs = 16;
/** Poll period of the service turnaround observer. */
constexpr auto kPollPeriod = std::chrono::milliseconds(1);

// ---------------------------------------------------------------------
// Command line

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    /** Internal: build the workload's inputs and shared objects, then
     * exit (the child process the setup_s measurement times). */
    bool setup_only = false;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--setup-only") {
            args->setup_only = true;
            continue;
        }
        if (!value) {
            std::fprintf(stderr, "missing value after %s\n", a.c_str());
            return false;
        }
        ++i;
        char *end = nullptr;
        errno = 0;
        if (a == "--workload") {
            args->workload = value;
        } else if (a == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
            have_seed = errno == 0 && end && *end == '\0';
        } else if (a == "--seconds") {
            args->seconds = std::strtod(value, &end);
            have_seconds = errno == 0 && end && *end == '\0' &&
                           args->seconds > 0;
        } else if (a == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0) {
                std::fprintf(stderr, "--trace takes 0 or 1\n");
                return false;
            }
            args->trace = value[0] == '1';
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return false;
        }
    }
    if (args->workload != "subjects" && args->workload != "forum" &&
        args->workload != "service") {
        std::fprintf(stderr,
                     "--workload must be subjects, forum or service\n");
        return false;
    }
    if (!have_seed || (!args->setup_only && !have_seconds)) {
        std::fprintf(stderr, "--seed and --seconds need numeric values\n");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Clocks

/** Wall clock and process CPU time at one instant. */
struct Stamp
{
    double wall = 0;
    double cpu = 0;
};

double
wallNow()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

Stamp
stamp()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double cpu = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    return {wallNow(), cpu};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------
// Workloads

/** One conversion the workload asks for. */
struct Item
{
    std::string label;
    std::string source;
    core::HeteroGenOptions options;
    /** A quick conversion the timed run samples repeatedly; the rest
     * take seconds each and are converted once per run. */
    bool repeat = true;
};

struct Workload
{
    std::string name;
    std::vector<Item> items;
    /** Every conversion of a pass shares one fresh disk-cache dir. */
    bool shared_cache = false;
    /** service: items are jobs drained through a ConversionService. */
    bool service = false;
    service::ServiceOptions service_options;
};

/** Scheduler threads: at most nproc host plus eval threads. */
std::pair<int, int>
serviceThreads()
{
    int nproc = std::max(1u, std::thread::hardware_concurrency());
    int eval = std::clamp(nproc / 2, 1, 2);
    int host = std::max(1, nproc - eval);
    return {host, eval};
}

Workload
subjectsWorkload()
{
    Workload w;
    w.name = "subjects";
    std::vector<subjects::Subject> all = subjects::allSubjects();
    for (const subjects::Subject &s : subjects::streamingSubjects())
        all.push_back(s);
    // Fixed, fuzz seeds included: another fuzz seed changes how long
    // a campaign runs before it plateaus, which would swamp any
    // host-time change. The seed only draws held-out check inputs.
    // The subjects whose conversion takes seconds rather than a
    // fraction of one; the rest are the ones the median samples.
    const std::vector<std::string> slow = {"P3", "P4", "P9", "S4"};
    for (const subjects::Subject &s : all)
        w.items.push_back(
            {s.id, s.source, bench::standardOptions(s),
             std::find(slow.begin(), slow.end(), s.id) == slow.end()});
    return w;
}

Workload
forumWorkload()
{
    Workload w;
    w.name = "forum";
    w.shared_cache = true;
    // The cache_warmup forum options; the cache dir is set per pass.
    core::HeteroGenOptions opts;
    opts.kernel = "kernel";
    opts.fuzz.max_executions = 400;
    opts.fuzz.min_suite_size = 12;
    opts.search.difftest_sample = 10;
    // One fixed draw in its generated order, like the subjects: which
    // posts repeat a symbol decides how much the shared cache saves (a
    // fresh draw per seed swings host time by a third), and each
    // post's cost grows with the cache it opens, so its position
    // moves a fast post's time several-fold.
    // The loop-heavy posts take seconds; the rest a few milliseconds.
    for (const subjects::ForumPost &post :
         subjects::generateForumCorpus(kForumPosts, kForumCorpusSeed))
        w.items.push_back(
            {"post-" + std::to_string(post.post_id), post.snippet, opts,
             post.ground_truth != hls::ErrorCategory::LoopParallelization});
    return w;
}

/**
 * The first kServiceJobs jobs of the service_throughput schedule,
 * without its engine pin. Like the subjects, the schedule is fixed:
 * the seed only draws the output check's held-out inputs.
 */
Workload
serviceWorkload()
{
    Workload w;
    w.name = "service";
    w.service = true;
    auto [host, eval] = serviceThreads();
    w.service_options.slots = 8;
    w.service_options.host_threads = host;
    w.service_options.eval_threads = eval;
    w.service_options.tenants = {
        {"bronze", 1e12, 1.0},
        {"silver", 1e12, 1.0},
        {"gold", 1e12, 2.0},
        {"platinum", 1e12, 4.0},
    };
    const auto &subs = subjects::allSubjects();
    for (int i = 0; i < kServiceJobs; ++i) {
        const subjects::Subject &s = subs[size_t(i) % subs.size()];
        uint64_t job_seed = uint64_t(i) / subs.size();
        core::HeteroGenOptions opts = bench::standardOptions(s);
        opts.fuzz.rng_seed = s.fuzz_seed * 1000 + job_seed;
        opts.fuzz.max_executions = 150;
        opts.fuzz.mutations_per_input = 8;
        opts.fuzz.max_steps_per_run = 60000;
        opts.fuzz.min_suite_size = 12;
        opts.search.budget_minutes = 90.0;
        opts.search.max_iterations = 60;
        opts.search.difftest_sample = 6;
        opts.search.rng_seed = opts.fuzz.rng_seed * 31 + 7;
        w.items.push_back({"job-" + std::to_string(i) + "-" + s.id,
                           s.source, opts});
    }
    return w;
}

/** Job i of the schedule: tenants and priorities cycle, and arrivals
 * are packed so most of the schedule is in the system at once. */
service::JobSpec
serviceJob(const Workload &w, size_t i)
{
    const std::vector<service::TenantSpec> &tenants =
        w.service_options.tenants;
    service::JobSpec spec;
    spec.tenant = tenants[i % tenants.size()].id;
    spec.priority = static_cast<service::Priority>(i % 3);
    spec.arrival_minutes = 0.02 * double(i);
    spec.source = w.items[i].source;
    spec.options = w.items[i].options;
    return spec;
}

Workload
makeWorkload(const std::string &name)
{
    if (name == "subjects")
        return subjectsWorkload();
    if (name == "forum")
        return forumWorkload();
    return serviceWorkload();
}

/** A directory under .bench_out/ removed when the object dies. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::absolute(".bench_out") /
                ("tmp-" + std::to_string(::getpid()) + "-" + tag))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/**
 * Everything built before the first conversion: the workload's inputs,
 * plus the shared objects a user creates once — the scheduler with its
 * pools and the submitted schedule, or the fresh cache directory.
 */
void
setUp(const std::string &name)
{
    Workload w = makeWorkload(name);
    if (w.service) {
        service::ConversionService svc(w.service_options);
        for (size_t i = 0; i < w.items.size(); ++i)
            svc.submit(serviceJob(w, i));
    } else if (w.shared_cache) {
        ScratchDir cache("setup");
        for (Item &item : w.items)
            item.options.cache_dir = cache.str();
        core::validateOptions(w.items.front().options);
    }
}

/** Median wall seconds of kSetupSamples cold start-ups (fresh processes). */
double
measureSetup(const Args &args)
{
    std::string seed = std::to_string(args.seed);
    std::vector<double> samples;
    for (int i = 0; i < kSetupSamples; ++i) {
        std::vector<std::string> argv_s = {
            "hg_perfbench", "--setup-only", "--workload", args.workload,
            "--seed", seed};
        std::vector<char *> argv;
        for (std::string &s : argv_s)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        double t0 = wallNow();
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                        argv.data(), environ) != 0)
            throw std::runtime_error("cannot spawn the set-up process");
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        double dt = wallNow() - t0;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up process failed");
        samples.push_back(dt);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

// ---------------------------------------------------------------------
// Running conversions

/** Stage boundaries of one traced conversion. */
struct StageLog
{
    Stamp begin;
    Stamp frontend_end;
    std::vector<std::pair<std::string, Stamp>> marks;
    Stamp end;
};

struct Outcome
{
    /** Index of the converted item in the workload. */
    size_t item = 0;
    /** Null when the run produced no report. Service reports alias the
     * (kept-alive) service that owns them. */
    std::shared_ptr<const core::HeteroGenReport> report;
    /** Exception text, or the service's stop reason. */
    std::string error;
    /** Serial: conversion wall seconds. Service: dispatch-to-result
     * host seconds of the job. */
    double host_s = 0;
    double cpu_s = 0;
    /** Arrival-to-finish simulated minutes (service); the run's own
     * simulated minutes when conversions run one at a time. */
    double sim_latency_min = 0;
};

Outcome
convert(const Item &item, const std::string &cache_dir, StageLog *log)
{
    Outcome out;
    core::HeteroGenOptions opts = item.options;
    if (!cache_dir.empty())
        opts.cache_dir = cache_dir;
    if (log) {
        opts.stage_hook = [log](const std::string &stage) {
            log->marks.emplace_back(stage, stamp());
        };
    }
    Stamp begin = stamp();
    try {
        core::HeteroGen hg(item.source);
        if (log) {
            log->begin = begin;
            log->frontend_end = stamp();
        }
        out.report =
            std::make_shared<const core::HeteroGenReport>(hg.run(opts));
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    Stamp end = stamp();
    if (log)
        log->end = end;
    out.host_s = end.wall - begin.wall;
    out.cpu_s = end.cpu - begin.cpu;
    out.sim_latency_min = out.report ? out.report->total_minutes : 0;
    return out;
}

struct Pass
{
    std::vector<Outcome> outcomes;
    Stamp begin, end;
    service::SchedulerStats stats;
};

/** Converts the items `which` in order, sharing one fresh cache
 * directory when the workload does. */
Pass
runSerial(const Workload &w, const std::vector<size_t> &which)
{
    std::optional<ScratchDir> cache;
    if (w.shared_cache)
        cache.emplace("pass");
    Pass pass;
    pass.begin = stamp();
    for (size_t i : which) {
        pass.outcomes.push_back(
            convert(w.items[i], cache ? cache->str() : "", nullptr));
        pass.outcomes.back().item = i;
    }
    pass.end = stamp();
    return pass;
}


/**
 * Drain the schedule through a fresh ConversionService. A poller
 * thread observes each job's dispatch and terminal state through the
 * public poll(), which gives every job's host turnaround.
 */
Pass
runService(const Workload &w)
{
    auto owner = std::make_shared<service::ConversionService>(
        w.service_options);
    service::ConversionService &svc = *owner;
    std::vector<int> ids;
    for (size_t i = 0; i < w.items.size(); ++i)
        ids.push_back(svc.submit(serviceJob(w, i)));

    size_t n = ids.size();
    std::vector<double> started(n, -1), finished(n, -1);
    auto sweep = [&](double now) {
        for (size_t i = 0; i < n; ++i) {
            if (finished[i] >= 0)
                continue;
            service::JobState st = svc.poll(ids[i]).state;
            if (st == service::JobState::Pending)
                continue;
            if (started[i] < 0)
                started[i] = now;
            if (st != service::JobState::Running)
                finished[i] = now;
        }
    };

    Pass pass;
    pass.begin = stamp();
    {
        std::jthread poller([&](std::stop_token stop) {
            while (!stop.stop_requested()) {
                sweep(wallNow());
                std::this_thread::sleep_for(kPollPeriod);
            }
        });
        svc.drain();
        pass.end = stamp();
    }
    sweep(pass.end.wall);
    pass.stats = svc.stats();

    for (size_t i = 0; i < n; ++i) {
        const service::JobOutcome &job = svc.collect(ids[i]);
        Outcome out;
        out.item = i;
        if (job.has_report)
            out.report = std::shared_ptr<const core::HeteroGenReport>(
                owner, &job.report);
        if (job.status.state != service::JobState::Completed)
            out.error = std::string(service::jobStateName(
                            job.status.state)) +
                        ": " + job.status.stop_reason;
        out.host_s = finished[i] - (started[i] >= 0 ? started[i]
                                                    : pass.begin.wall);
        out.sim_latency_min =
            job.status.finish_minutes - job.status.arrival_minutes;
        pass.outcomes.push_back(std::move(out));
    }
    return pass;
}


// ---------------------------------------------------------------------
// Output check, independent of the pipeline's own verdict

uint64_t
fnv1a(const std::string &s, uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
doubleBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return std::to_string(bits);
}

/** One output's check: a verdict plus its held-out comparisons. */
struct Check
{
    /** "" when the output passes; "failed: ..." when it breaks what
     * ok() guarantees by construction (it re-parses and synthesizes);
     * "diverges: ..." when it differs from the original on a held-out
     * input — the test-based repair's blind spot, e.g. bit widths
     * narrowed to the profiled value range. */
    std::string verdict;
    int compared = 0;
    int matched = 0;
};

/**
 * Checks each output the pipeline calls ok(): it must re-parse, pass
 * hls::checkSynthesizability with no errors, and behave like the
 * original program on held-out inputs — inputs fuzzed from the
 * original with a seed derived from the benchmark's, minus any the
 * pipeline's own suite already holds. Both sides run on the reference
 * tree-walking interpreter.
 */
class OutputChecker
{
  public:
    explicit OutputChecker(uint64_t seed) : seed_(seed) {}

    const Check &
    check(const Item &item, const core::HeteroGenReport &report)
    {
        std::string key = item.source + '\0' + report.hls_source + '\0' +
                          report.search.config.top_function;
        auto cached = checks_.find(key);
        if (cached == checks_.end())
            cached = checks_.emplace(key, checkOnce(item, report)).first;
        return cached->second;
    }

  private:
    const std::vector<std::vector<interp::KernelArg>> &
    heldOut(const Item &item, const core::HeteroGen &original)
    {
        auto it = inputs_.find(item.source);
        if (it != inputs_.end())
            return it->second;
        fuzz::FuzzOptions f;
        f.host_function = item.options.host_function;
        f.rng_seed = fnv1a(item.source, seed_ * 0x9e3779b97f4a7c15ull + 1);
        f.max_executions = 128;
        f.mutations_per_input = 8;
        f.min_suite_size = int(kHeldOutInputs) * 2;
        f.max_steps_per_run = item.options.fuzz.max_steps_per_run;
        f.engine = interp::EngineKind::Bytecode;
        fuzz::FuzzResult r = fuzz::fuzzKernel(
            original.program(), item.options.kernel, original.sema(), f);
        std::vector<std::vector<interp::KernelArg>> inputs;
        for (const fuzz::TestCase &t : r.suite.cases())
            inputs.push_back(t.args);
        return inputs_[item.source] = std::move(inputs);
    }

    Check
    checkOnce(const Item &item, const core::HeteroGenReport &report)
    {
        Check c;
        std::optional<core::HeteroGen> output;
        try {
            output.emplace(report.hls_source);
        } catch (const std::exception &e) {
            c.verdict =
                std::string("failed: output does not re-parse: ") + e.what();
            return c;
        }
        const hls::HlsConfig &config = report.search.config;
        std::vector<hls::HlsError> errors =
            hls::checkSynthesizability(output->program(), config);
        if (!errors.empty()) {
            c.verdict = "failed: synthesizability check reports " +
                        std::to_string(errors.size()) + " error(s)";
            return c;
        }

        core::HeteroGen original(item.source);
        interp::RunOptions ro;
        ro.engine = interp::EngineKind::TreeWalk;
        ro.max_steps = item.options.fuzz.max_steps_per_run;
        interp::Interpreter cpu(original.program(), ro);
        interp::Interpreter fpga(output->program(), ro);
        std::string first_miss;
        for (const auto &args : heldOut(item, original)) {
            if (size_t(c.compared) == kHeldOutInputs)
                break;
            bool in_suite = false;
            for (const fuzz::TestCase &t : report.testgen.suite.cases())
                in_suite = in_suite || t.args == args;
            if (in_suite)
                continue;
            interp::RunResult want = cpu.run(item.options.kernel, args);
            if (!want.ok)
                continue; // no defined behaviour to match
            ++c.compared;
            if (want.sameBehavior(fpga.run(config.top_function, args)))
                ++c.matched;
            else if (first_miss.empty())
                first_miss = interp::argsToString(args);
        }
        if (c.matched < c.compared)
            c.verdict = "diverges: " +
                        std::to_string(c.compared - c.matched) + " of " +
                        std::to_string(c.compared) +
                        " held-out inputs, first " + first_miss;
        return c;
    }

    uint64_t seed_;
    std::map<std::string, std::vector<std::vector<interp::KernelArg>>>
        inputs_;
    std::map<std::string, Check> checks_;
};

/** Byte-level identity of two reports: output, clock and trace. */
bool
sameReport(const Outcome &a, const Outcome &b)
{
    if (!a.report || !b.report)
        return !a.report && !b.report;
    return a.report->hls_source == b.report->hls_source &&
           doubleBits(a.report->total_minutes) ==
               doubleBits(b.report->total_minutes) &&
           a.report->trace_json == b.report->trace_json;
}

uint64_t
reportsDigest(const Workload &w, const std::vector<Outcome> &outcomes)
{
    uint64_t h = fnv1a(w.name);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        h = fnv1a(w.items[i].label, h);
        if (const core::HeteroGenReport *r = outcomes[i].report.get()) {
            h = fnv1a(r->hls_source, h);
            h = fnv1a(doubleBits(r->total_minutes), h);
            h = fnv1a(r->trace_json, h);
        }
    }
    return h;
}

// ---------------------------------------------------------------------
// Metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank percentile, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
printResult(bool correct, int attempted, int failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %18.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** .bench_out/<workload>-seed<N>-trace<k>/ for this run's artifacts. */
fs::path
artifactDir(const Args &args)
{
    fs::path dir = fs::path(".bench_out") /
                   (args.workload + "-seed" + std::to_string(args.seed) +
                    "-trace" + (args.trace ? "1" : "0"));
    fs::create_directories(dir);
    return dir;
}

std::string
conditionsJson()
{
    auto [host, eval] = serviceThreads();
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
        "\"engine\": \"%s\", \"worker_pool\": %d, "
        "\"service_host_threads\": %d, \"service_eval_threads\": %d}",
        HG_PERFBENCH_BUILD_TYPE, HG_PERFBENCH_COMPILER,
        std::thread::hardware_concurrency(),
        interp::engineName(interp::defaultEngine()), resolveJobs(0), host,
        eval);
    return buf;
}

/** Per-program rows: median host seconds over the program's samples,
 * simulated minutes, FPGA speedup. */
void
writeProgramRows(const fs::path &path, const Workload &w,
                 const std::vector<Outcome> &outcomes,
                 const std::vector<std::vector<double>> &samples,
                 const std::vector<std::string> &verdicts)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path.string());
    std::fprintf(f, "program,host_s,samples,sim_minutes,fpga_speedup,ok,"
                    "check\n");
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const core::HeteroGenReport *r = outcomes[i].report.get();
        std::string check = verdicts[i];
        std::replace(check.begin(), check.end(), '"', '\'');
        std::fprintf(f, "%s,%.6f,%zu,%.4f,%.4f,%s,\"%s\"\n",
                     w.items[i].label.c_str(), median(samples[i]),
                     samples[i].size(),
                     r ? r->total_minutes : 0,
                     r ? ratio(r->search.orig_cpu_ms, r->search.fpga_ms)
                       : 0,
                     r && r->ok() ? "yes" : "no", check.c_str());
    }
    std::fclose(f);
}

/** A pass's outcomes judged by the OutputChecker. */
struct PassCheck
{
    /** Per outcome: "" for an ok() output that passes, else why not. */
    std::vector<std::string> verdicts;
    /** Conversions that report ok() and break no hard check. */
    int ok = 0;
    /** Runs that threw, jobs that did not complete, and ok() outputs
     * that do not re-parse or synthesize: these make a run incorrect. */
    int failed = 0;
    /** Held-out inputs compared and matched over the ok() outputs. */
    int compared = 0;
    int matched = 0;
};

PassCheck
checkPass(const Workload &w, const Pass &pass, OutputChecker &checker,
          bool print = true)
{
    PassCheck pc;
    for (size_t i = 0; i < pass.outcomes.size(); ++i) {
        const Outcome &o = pass.outcomes[i];
        const Item &item = w.items[o.item];
        std::string v;
        if (!o.error.empty() || !o.report) {
            v = "failed: " + (o.error.empty() ? "no report" : o.error);
        } else if (!o.report->ok()) {
            v = "not ok";
        } else {
            const Check &c = checker.check(item, *o.report);
            v = c.verdict;
            pc.compared += c.compared;
            pc.matched += c.matched;
        }
        if (v.rfind("failed:", 0) == 0)
            ++pc.failed;
        else if (v != "not ok")
            ++pc.ok;
        if (print && !v.empty())
            std::fprintf(stderr, "%s: %s\n", item.label.c_str(),
                         v.c_str());
        pc.verdicts.push_back(std::move(v));
    }
    return pc;
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics

bool sameReport(const Outcome &a, const Outcome &b);

/**
 * The timed passes. For the serial workloads the first pass converts
 * the whole workload once, in order, with one shared cache directory
 * when the workload has one. After each run of slow items in it (after
 * the last item when none is slow) quick rounds re-convert the repeat
 * items, each round with its own fresh cache directory, for an equal
 * share of `seconds` and at least once. The quick items are thus
 * sampled many times and across the whole run, so a burst of host
 * load moves few of their samples. Only the first quick round keeps
 * its reports: a later round's report is compared with it and then
 * dropped (a mismatch becomes the outcome's error), so memory does not
 * grow with the number of rounds. The service repeats whole drains
 * until `seconds` have passed, at least one.
 */
std::vector<Pass>
timedPasses(const Workload &w, double seconds)
{
    std::vector<Pass> passes;
    if (w.service) {
        double t0 = wallNow();
        do
            passes.push_back(runService(w));
        while (wallNow() - t0 < seconds);
        return passes;
    }

    size_t n = w.items.size();
    std::vector<size_t> quick;
    for (size_t i = 0; i < n; ++i)
        if (w.items[i].repeat)
            quick.push_back(i);
    auto slotAfter = [&](size_t i) {
        bool last = i + 1 == n;
        if (quick.size() == n)
            return last;
        return !w.items[i].repeat && (last || w.items[i + 1].repeat);
    };
    size_t slots = 0;
    for (size_t i = 0; i < n; ++i)
        slots += slotAfter(i);
    double slot_s = seconds / double(slots);

    std::optional<ScratchDir> cache;
    if (w.shared_cache)
        cache.emplace("pass");
    // Warm-up, untimed: page in code and the allocator before the clock.
    {
        std::optional<ScratchDir> warm;
        if (w.shared_cache)
            warm.emplace("warmup");
        convert(w.items.front(), warm ? warm->str() : "", nullptr);
    }
    passes.emplace_back();
    for (size_t i = 0; i < n; ++i) {
        Outcome out = convert(w.items[i], cache ? cache->str() : "", nullptr);
        out.item = i;
        passes.front().outcomes.push_back(std::move(out));
        if (quick.empty() || !slotAfter(i))
            continue;
        double s0 = wallNow();
        do {
            passes.push_back(runSerial(w, quick));
            if (passes.size() == 2)
                continue;
            for (size_t k = 0; k < quick.size(); ++k) {
                Outcome &o = passes.back().outcomes[k];
                if (!sameReport(o, passes[1].outcomes[k]))
                    o.error = "report differs from the first quick round";
                o.report.reset();
            }
        } while (wallNow() - s0 < slot_s);
    }
    return passes;
}

int
timedRun(const Args &args, const Workload &w, double setup_s)
{
    std::vector<Pass> passes = timedPasses(w, args.seconds);
    double rss_mb = peakRssMb(); // before the checker allocates

    // Throughput, tail and the shares come from the passes that convert
    // the whole workload (the serial workloads' first pass, every
    // drain); the median from every sample of every item.
    OutputChecker checker(args.seed);
    int attempted = 0, completed = 0, failed = 0, full_passes = 0;
    double full_s = 0;
    PassCheck whole;
    bool identical = true;
    std::vector<double> tail;
    std::vector<std::vector<double>> samples(w.items.size());
    const Pass &first = passes.front();
    for (const Pass &pass : passes) {
        bool full = w.service || &pass == &first;
        PassCheck pc;
        if (full || &pass == &passes[1])
            pc = checkPass(w, pass, checker, &pass == &first);
        else
            for (const Outcome &o : pass.outcomes)
                pc.failed += !o.error.empty();
        failed += pc.failed;
        if (full) {
            ++full_passes;
            if (w.service)
                full_s += pass.end.wall - pass.begin.wall;
            else
                for (const Outcome &o : pass.outcomes)
                    full_s += o.host_s;
            whole.ok += pc.ok;
            whole.compared += pc.compared;
            whole.matched += pc.matched;
        }
        for (const Outcome &o : pass.outcomes) {
            ++attempted;
            bool done = o.report && o.error.empty();
            if (full) {
                completed += done;
                tail.push_back(o.host_s);
            }
            samples[o.item].push_back(o.host_s);
            if (o.report)
                identical =
                    identical && sameReport(o, first.outcomes[o.item]);
        }
        if (&pass == &first)
            whole.verdicts = std::move(pc.verdicts);
    }
    if (!identical)
        std::fprintf(stderr, "passes of one seed produced different "
                             "reports\n");
    std::vector<double> item_medians;
    std::string counts;
    for (size_t i = 0; i < samples.size(); ++i) {
        item_medians.push_back(median(samples[i]));
        counts += (i ? " " : "") + std::to_string(samples[i].size());
    }

    // The simulated metrics are per pass; every pass is identical.
    std::vector<double> sim_latency;
    double sim_total = 0, log_speedup = 0;
    int speedups = 0;
    for (const Outcome &o : first.outcomes) {
        sim_latency.push_back(o.sim_latency_min);
        if (!o.report)
            continue;
        sim_total += o.report->total_minutes;
        const repair::SearchResult &sr = o.report->search;
        if (o.report->ok() && sr.orig_cpu_ms > 0 && sr.fpga_ms > 0) {
            log_speedup += std::log(sr.orig_cpu_ms / sr.fpga_ms);
            ++speedups;
        }
    }

    fs::path dir = artifactDir(args);
    writeProgramRows(dir / "programs.csv", w, first.outcomes, samples,
                     whole.verdicts);
    int whole_attempted = full_passes * int(w.items.size());
    std::printf("%d whole pass(es) over %.3f s and %zu quick round(s), "
                "held-out inputs compared %d, reports_digest %016" PRIx64
                "\n",
                full_passes, full_s, passes.size() - size_t(full_passes),
                whole.compared, reportsDigest(w, first.outcomes));
    std::printf("median over %zu per-item medians of samples [%s]; "
                "tail p90 of %zu conversions (%zu beyond it)\n",
                item_medians.size(), counts.c_str(), tail.size(),
                tail.size() - size_t(std::ceil(0.9 * double(tail.size()))));

    std::vector<Metric> metrics = {
        {"setup_s", setup_s, "s"},
        {"conversions_per_s", double(completed) / full_s, "1/s"},
        {"convert_s_p50", median(item_medians), "s"},
        {"convert_s_tail", percentile(tail, 0.9), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"ok_share", double(whole.ok) / double(whole_attempted), "ratio"},
        {"heldout_match_share",
         ratio(double(whole.matched), double(whole.compared)), "ratio"},
        {"sim_minutes_total", sim_total, "min"},
        {"fpga_speedup_geomean",
         speedups ? std::exp(log_speedup / speedups) : 0, "x"},
        {"sim_latency_p99_min", percentile(sim_latency, 0.99), "min"},
    };
    printResult(identical && failed == 0, attempted, failed, metrics);
    return 0;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics

/** Per-layer sums over a traced pass. */
struct Layers
{
    double frontend_s = 0, print_s = 0;
    std::map<std::string, double> stage_wall, stage_cpu;
    int64_t fuzz_steps = 0, profile_steps = 0, difftest_steps = 0;
    int64_t executions = 0, suite_size = 0;
    int64_t compiles = 0, synth_checks = 0;
    int64_t style_checks = 0, style_rejections = 0;
    int64_t candidates = 0, campaigns = 0;
    int64_t memo_hits = 0, memo_lookups = 0;
    int64_t disk_hits = 0, disk_misses = 0, disk_writes = 0;
    double compile_s = 0, style_s = 0, difftest_s = 0;
    int replays = 0, difftest_replays = 0;
};

int64_t
spanCounter(const TraceSpan &root, const char *span, const char *key)
{
    const TraceSpan *s = root.find(span);
    return s ? s->counterTotal(key) : 0;
}

void
addCounters(Layers &l, const core::HeteroGenReport &report)
{
    std::unique_ptr<TraceSpan> root = parseTraceJson(report.trace_json);
    if (!root)
        throw std::runtime_error("unparseable trace_json");
    l.fuzz_steps += spanCounter(*root, "fuzz", "interp.steps");
    l.profile_steps += spanCounter(*root, "profile", "interp.steps");
    l.difftest_steps += spanCounter(*root, "repair", "interp.steps");
    l.executions += root->counterTotal("fuzz.executions");
    l.suite_size += root->counterTotal("fuzz.suite_size");
    l.compiles += root->counterTotal("hls.compiles");
    l.synth_checks += root->counterTotal("hls.synth_checks");
    l.style_checks += root->counterTotal("search.style_checks");
    l.style_rejections += root->counterTotal("search.style_rejections");
    l.candidates += root->counterTotal("search.candidates");
    l.campaigns += root->counterTotal("difftest.campaigns");
    for (const char *kind : {"compile", "difftest"}) {
        std::string base = std::string("repair.memo.") + kind;
        int64_t hits = root->counterTotal(base + "_hits");
        l.memo_hits += hits;
        l.memo_lookups += hits + root->counterTotal(base + "_misses");
    }
    l.disk_hits += root->counterTotal("repair.diskcache.hits");
    l.disk_misses += root->counterTotal("repair.diskcache.misses");
    l.disk_writes += root->counterTotal("repair.diskcache.writes");
}

/** Stage wall/CPU seconds from the hook boundaries. */
void
addStages(Layers &l, const StageLog &log)
{
    l.frontend_s += log.frontend_end.wall - log.begin.wall;
    for (size_t i = 0; i < log.marks.size(); ++i) {
        const Stamp &from = log.marks[i].second;
        const Stamp &to =
            i + 1 < log.marks.size() ? log.marks[i + 1].second : log.end;
        l.stage_wall[log.marks[i].first] += to.wall - from.wall;
        l.stage_cpu[log.marks[i].first] += to.cpu - from.cpu;
    }
}

/** Times the final program through each layer's public entry point. */
void
replayLayers(Layers &l, const Item &item,
             const core::HeteroGenReport &report)
{
    const cir::TranslationUnit &program = *report.search.program;
    double t0 = wallNow();
    std::string printed = cir::print(program);
    double t1 = wallNow();
    hls::HlsToolchain toolchain(report.search.config);
    toolchain.compile(program);
    double t2 = wallNow();
    style::checkStyle(program);
    double t3 = wallNow();
    l.print_s += t1 - t0;
    l.compile_s += t2 - t1;
    l.style_s += t3 - t2;
    ++l.replays;
    if (report.testgen.suite.empty())
        return;
    core::HeteroGen original(item.source);
    repair::DiffTestOptions dopts;
    dopts.max_tests = item.options.search.difftest_sample;
    double t4 = wallNow();
    repair::diffTest(original.program(), item.options.kernel, program,
                     report.search.config, report.testgen.suite, dopts);
    l.difftest_s += wallNow() - t4;
    ++l.difftest_replays;
}

/** One Chrome trace-event "complete" event. */
void
traceEvent(std::string &out, const std::string &name, int pid, int tid,
           double ts_us, double dur_us)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  name.c_str(), pid, tid, ts_us, dur_us);
    out += buf;
}

void
traceMeta(std::string &out, const char *what, int pid, int tid,
          const std::string &name)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, "
                  "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                  what, pid, tid, name.c_str());
    out += buf;
}

/**
 * Chrome trace-event JSON of the traced pass: process 1 holds one
 * host-time track per conversion (frontend and pipeline stages from
 * the hook boundaries); process 2 holds one track of simulated stage
 * minutes from each report's trace_json, conversions end to end, one
 * simulated minute drawn as one second.
 */
void
writeChromeTrace(const fs::path &path, const Workload &w,
                 const std::vector<Outcome> &traced,
                 const std::vector<StageLog> &logs)
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                      "{\"name\": \"process_name\", \"ph\": \"M\", "
                      "\"pid\": 1, \"args\": {\"name\": \"host time\"}}";
    traceMeta(out, "process_name", 2, 0, "simulated minutes (1 min = 1 s)");
    traceMeta(out, "thread_name", 2, 1, "pipeline stages");
    double origin = logs.empty() ? 0 : logs.front().begin.wall;
    auto us = [origin](double wall) { return (wall - origin) * 1e6; };
    double sim_offset = 0;
    for (size_t i = 0; i < logs.size(); ++i) {
        const StageLog &log = logs[i];
        int tid = int(i) + 1;
        traceMeta(out, "thread_name", 1, tid, w.items[i].label);
        traceEvent(out, w.items[i].label, 1, tid, us(log.begin.wall),
                   us(log.end.wall) - us(log.begin.wall));
        traceEvent(out, "frontend", 1, tid, us(log.begin.wall),
                   us(log.frontend_end.wall) - us(log.begin.wall));
        for (size_t k = 0; k < log.marks.size(); ++k) {
            double to = k + 1 < log.marks.size()
                            ? log.marks[k + 1].second.wall
                            : log.end.wall;
            traceEvent(out, log.marks[k].first, 1, tid,
                       us(log.marks[k].second.wall),
                       us(to) - us(log.marks[k].second.wall));
        }
        if (!traced[i].report)
            continue;
        std::unique_ptr<TraceSpan> root =
            parseTraceJson(traced[i].report->trace_json);
        const TraceSpan *pipeline = root ? root->find("pipeline") : nullptr;
        if (!pipeline)
            continue;
        traceEvent(out, w.items[i].label, 2, 1, sim_offset * 1e6,
                   pipeline->minutes * 1e6);
        for (const auto &stage : pipeline->children)
            traceEvent(out, stage->name, 2, 1,
                       (sim_offset + stage->start_minutes) * 1e6,
                       stage->minutes * 1e6);
        sim_offset += pipeline->minutes;
    }
    out += "\n]}\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path.string());
    std::fputs(out.c_str(), f);
    std::fclose(f);
}

int
tracedRun(const Args &args, const Workload &w)
{
    // The service's scheduler metrics come from a drain; the per-stage
    // hook is the service's own there, so its conversions are traced
    // one at a time outside it.
    std::optional<Pass> drained;
    if (w.service)
        drained = runService(w);

    // Untraced and traced conversions alternate, each sequence with its
    // own fresh cache directory, so both see the same cache states.
    std::optional<ScratchDir> plain_cache, traced_cache;
    if (w.shared_cache) {
        plain_cache.emplace("plain");
        traced_cache.emplace("traced");
    }
    Pass plain, traced;
    std::vector<StageLog> logs(w.items.size());
    for (size_t i = 0; i < w.items.size(); ++i) {
        plain.outcomes.push_back(convert(
            w.items[i], plain_cache ? plain_cache->str() : "", nullptr));
        traced.outcomes.push_back(
            convert(w.items[i], traced_cache ? traced_cache->str() : "",
                    &logs[i]));
    }

    OutputChecker checker(args.seed);
    PassCheck check = checkPass(w, traced, checker);

    bool identical = true, stages_fit = true;
    Layers l;
    double plain_s = 0, traced_s = 0, plain_cpu = 0;
    for (size_t i = 0; i < w.items.size(); ++i) {
        const Outcome &t = traced.outcomes[i];
        bool same = sameReport(plain.outcomes[i], t) &&
                    (!drained || sameReport(drained->outcomes[i], t));
        if (!same)
            std::fprintf(stderr, "%s: traced report differs from the "
                                 "untraced one\n",
                         w.items[i].label.c_str());
        identical = identical && same;
        plain_s += plain.outcomes[i].host_s;
        plain_cpu += plain.outcomes[i].cpu_s;
        traced_s += t.host_s;

        Layers one;
        addStages(one, logs[i]);
        double staged = one.frontend_s;
        for (const auto &[stage, s] : one.stage_wall)
            staged += s;
        stages_fit = stages_fit && staged <= t.host_s;
        addStages(l, logs[i]);
        if (t.report) {
            addCounters(l, *t.report);
            replayLayers(l, w.items[i], *t.report);
        }
    }
    if (!stages_fit)
        std::fprintf(stderr, "per-stage seconds exceed a conversion's "
                             "wall time\n");

    fs::path dir = artifactDir(args);
    std::vector<std::vector<double>> samples;
    for (const Outcome &o : traced.outcomes)
        samples.push_back({o.host_s});
    writeProgramRows(dir / "programs.csv", w, traced.outcomes, samples,
                     check.verdicts);
    writeChromeTrace(dir / "chrome_trace.json", w, traced.outcomes, logs);
    std::printf("traced %zu conversions, reports_digest %016" PRIx64
                ", chrome trace %s\n",
                w.items.size(), reportsDigest(w, traced.outcomes),
                (dir / "chrome_trace.json").c_str());

    auto stageS = [&](const char *s) { return l.stage_wall[s]; };
    auto cores = [&](const char *s) {
        return ratio(l.stage_cpu[s], l.stage_wall[s]);
    };
    double drain_s = drained ? drained->end.wall - drained->begin.wall
                             : plain_s;
    double drain_cpu =
        drained ? drained->end.cpu - drained->begin.cpu : plain_cpu;
    const service::SchedulerStats stats =
        drained ? drained->stats : service::SchedulerStats{};
    std::vector<Metric> metrics = {
        {"cir.frontend_s", l.frontend_s, "s"},
        {"cir.print_s", l.print_s, "s"},
        {"core.fuzz_s", stageS("fuzz"), "s"},
        {"core.fuzz_cores", cores("fuzz"), "cores"},
        {"core.profile_s", stageS("profile"), "s"},
        {"core.profile_cores", cores("profile"), "cores"},
        {"core.repair_s", stageS("repair"), "s"},
        {"core.repair_cores", cores("repair"), "cores"},
        {"core.init_hls_s", stageS("init_hls"), "s"},
        {"interp.fuzz.steps", double(l.fuzz_steps), "count"},
        {"interp.profile.steps", double(l.profile_steps), "count"},
        {"interp.difftest.steps", double(l.difftest_steps), "count"},
        {"interp.fuzz.steps_per_s",
         ratio(double(l.fuzz_steps), stageS("fuzz")), "1/s"},
        {"interp.profile.steps_per_s",
         ratio(double(l.profile_steps), stageS("profile")), "1/s"},
        {"fuzz.executions", double(l.executions), "count"},
        {"fuzz.suite_size", double(l.suite_size), "count"},
        {"fuzz.useful_ratio",
         ratio(double(l.suite_size), double(l.executions)), "ratio"},
        {"hls.compiles", double(l.compiles), "count"},
        {"hls.synth_checks", double(l.synth_checks), "count"},
        {"hls.compile_us", 1e6 * ratio(l.compile_s, l.replays), "us"},
        {"style.checks", double(l.style_checks), "count"},
        {"style.rejections", double(l.style_rejections), "count"},
        {"style.reject_ratio",
         ratio(double(l.style_rejections), double(l.style_checks)),
         "ratio"},
        {"style.check_us", 1e6 * ratio(l.style_s, l.replays), "us"},
        {"repair.candidates", double(l.candidates), "count"},
        {"repair.difftest.campaigns", double(l.campaigns), "count"},
        {"repair.difftest_us",
         1e6 * ratio(l.difftest_s, l.difftest_replays), "us"},
        {"repair.memo.hit_ratio",
         ratio(double(l.memo_hits), double(l.memo_lookups)), "ratio"},
        {"repair.diskcache.hits", double(l.disk_hits), "count"},
        {"repair.diskcache.writes", double(l.disk_writes), "count"},
        {"repair.diskcache.hit_ratio",
         ratio(double(l.disk_hits), double(l.disk_hits + l.disk_misses)),
         "ratio"},
        {"service.drain_s", drain_s, "s"},
        {"service.cores_used", ratio(drain_cpu, drain_s), "cores"},
        {"service.preemptions", double(stats.preemptions), "count"},
        {"service.max_in_flight",
         double(drained ? stats.max_in_flight : 1), "count"},
        {"trace.overhead_s", traced_s - plain_s, "s"},
    };
    printResult(identical && stages_fit && check.failed == 0,
                int(w.items.size()), check.failed, metrics);
    return 0;
}

/** Names of HETEROGEN_* variables in the environment. */
std::vector<std::string>
heterogenEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "HETEROGEN_", 10) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    return names;
}

int
benchMain(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: hg_perfbench --workload subjects|forum|"
                     "service --seed N --seconds S --trace 0|1\n");
        return 2;
    }
    // Library defaults are what gets measured: any HETEROGEN_* knob
    // would silently change the engine, pool size, cache or faults.
    if (std::vector<std::string> env = heterogenEnv(); !env.empty()) {
        for (const std::string &name : env)
            std::fprintf(stderr, "refusing to run with %s set\n",
                         name.c_str());
        return 2;
    }
    if (args.setup_only) {
        setUp(args.workload);
        return 0;
    }

    std::string conditions = conditionsJson();
    std::printf("workload %s seed %" PRIu64 " conditions %s\n",
                args.workload.c_str(), args.seed, conditions.c_str());
    fs::path dir = artifactDir(args);
    if (std::FILE *f = std::fopen((dir / "conditions.json").c_str(), "w")) {
        std::fprintf(f, "%s\n", conditions.c_str());
        std::fclose(f);
    }

    double setup_s = args.trace ? 0 : measureSetup(args);
    Workload w = makeWorkload(args.workload);
    return args.trace ? tracedRun(args, w) : timedRun(args, w, setup_s);
}

} // namespace
} // namespace heterogen::perfbench

int
main(int argc, char **argv)
{
    try {
        return heterogen::perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hg_perfbench: %s\n", e.what());
        return 1;
    }
}
