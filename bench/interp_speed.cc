/**
 * @file
 * Interpreter throughput per sink (docs/INTERP.md).
 *
 * For every subject this bench builds the fuzzer's regression suite
 * once, then measures host-side kernel executions per second over that
 * suite with each sink a pipeline stage attaches:
 *   - fuzz: branch coverage, on the tree-walk and the bytecode engine
 *     (the fuzz loop's evaluate step);
 *   - profile: the value-range profile, bytecode (the profile stage);
 *   - co-sim: the loop profile, bytecode, through hls::simulateFpga (a
 *     difftest's candidate side).
 * It also times whole fuzz campaigns per engine — the engines are
 * bit-identical so both campaigns do exactly the same simulated work.
 *
 * Writes BENCH_interp.json (override with --out <path>) with the
 * conditions it ran under, so the trajectory of these layers is
 * tracked across changes. --smoke (CI golden job) instead runs each
 * subject's suite once per sink on both engines and exits 1 if a value
 * profile, loop profile or modeled FPGA cycle count differs.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cir/parser.h"
#include "cir/sema.h"
#include "fuzz/fuzzer.h"
#include "hls/fpga_model.h"
#include "interp/interp.h"
#include "subjects/subjects.h"

#ifndef HG_BUILD_TYPE
#define HG_BUILD_TYPE "unknown"
#endif

namespace heterogen {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

struct SubjectRow
{
    std::string id;
    int suite_size = 0;
    double walk_execs_per_sec = 0;
    double vm_execs_per_sec = 0;
    double profile_execs_per_sec = 0;
    double cosim_execs_per_sec = 0;
    double campaign_speedup = 0;

    double speedup() const { return vm_execs_per_sec / walk_execs_per_sec; }
};

/** Fuzz-loop bound on one run, shared by every measurement here. */
constexpr uint64_t kMaxSteps = 400'000;

/**
 * Executions/second of `run` over the suite round-robin until the wall
 * budget elapses, after one untimed warm-up pass (which pays the
 * bytecode compile where `run` reuses one).
 */
template <typename Run>
double
measureExecsPerSec(const fuzz::TestSuite &suite, double budget_seconds,
                   Run run)
{
    for (const auto &test : suite.cases())
        run(test.args);

    long execs = 0;
    Clock::time_point begin = Clock::now();
    double elapsed = 0;
    while (elapsed < budget_seconds) {
        for (const auto &test : suite.cases()) {
            run(test.args);
            ++execs;
        }
        elapsed = seconds(begin, Clock::now());
    }
    return double(execs) / elapsed;
}

interp::RunOptions
engineOptions(interp::EngineKind engine)
{
    interp::RunOptions opts;
    opts.engine = engine;
    opts.max_steps = kMaxSteps;
    return opts;
}

/** One run with the fuzz loop's coverage sink. */
void
runWithCoverage(interp::Interpreter &interp, const std::string &kernel,
                const std::vector<interp::KernelArg> &args,
                interp::EngineKind engine)
{
    interp::CoverageMap cov;
    interp::RunOptions opts = engineOptions(engine);
    opts.coverage = &cov;
    interp.run(kernel, args, opts);
}

/** One run with the profile stage's value-range sink. */
interp::ValueProfile
runWithValueProfile(interp::Interpreter &interp, const std::string &kernel,
                    const std::vector<interp::KernelArg> &args,
                    interp::EngineKind engine)
{
    interp::ValueProfile profile;
    interp::RunOptions opts = engineOptions(engine);
    opts.profile = &profile;
    interp.run(kernel, args, opts);
    return profile;
}

/** One run with the loop-profile sink, read back directly. */
interp::LoopProfile
runWithLoopProfile(interp::Interpreter &interp, const std::string &kernel,
                   const std::vector<interp::KernelArg> &args,
                   interp::EngineKind engine)
{
    interp::LoopProfile loops;
    interp::RunOptions opts = engineOptions(engine);
    opts.loop_profile = &loops;
    interp.run(kernel, args, opts);
    return loops;
}

/** One co-simulation: the loop-profile sink through simulateFpga. */
hls::FpgaRunResult
runCosim(const cir::TranslationUnit &tu, const std::string &kernel,
         const std::vector<interp::KernelArg> &args,
         interp::EngineKind engine)
{
    return hls::simulateFpga(tu, hls::HlsConfig::forTop(kernel), kernel,
                             args, engineOptions(engine));
}

/**
 * Both engines over every test of the suite with each sink; prints
 * and counts the tests whose profiles or modeled cycles differ.
 */
int
smokeSubject(const subjects::Subject &subject,
             const cir::TranslationUnit &tu, const fuzz::TestSuite &suite)
{
    using interp::EngineKind;
    interp::Interpreter interp(tu);
    int mismatches = 0;
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &args = suite[i].args;
        const char *what = nullptr;
        if (!(runWithValueProfile(interp, subject.kernel, args,
                                  EngineKind::TreeWalk) ==
              runWithValueProfile(interp, subject.kernel, args,
                                  EngineKind::Bytecode)))
            what = "value profile";
        else if (!(runWithLoopProfile(interp, subject.kernel, args,
                                      EngineKind::TreeWalk) ==
                   runWithLoopProfile(interp, subject.kernel, args,
                                      EngineKind::Bytecode)))
            what = "loop profile";
        else if (runCosim(tu, subject.kernel, args, EngineKind::TreeWalk)
                     .fpga_cycles !=
                 runCosim(tu, subject.kernel, args, EngineKind::Bytecode)
                     .fpga_cycles)
            what = "co-sim fpga_cycles";
        if (what) {
            std::printf("%s test %zu: %s differs between engines\n",
                        subject.id.c_str(), i, what);
            ++mismatches;
        }
    }
    return mismatches;
}

double
geomean(const std::vector<SubjectRow> &rows,
        double (*field)(const SubjectRow &))
{
    double log_sum = 0;
    for (const auto &r : rows)
        log_sum += std::log(field(r));
    return std::exp(log_sum / double(rows.size()));
}

} // namespace
} // namespace heterogen

int
main(int argc, char **argv)
{
    using namespace heterogen;

    std::string out_path = "BENCH_interp.json";
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

    if (smoke) {
        int mismatches = 0;
        size_t tests = 0;
        for (const auto &subject : subjects::allSubjects()) {
            auto tu = cir::parse(subject.source);
            cir::SemaResult sema = cir::analyzeOrDie(*tu);
            fuzz::FuzzOptions fuzz_opts;
            fuzz_opts.host_function = subject.host;
            fuzz_opts.rng_seed = subject.fuzz_seed;
            fuzz_opts.max_executions = 200;
            fuzz_opts.mutations_per_input = 12;
            fuzz_opts.max_steps_per_run = kMaxSteps;
            fuzz::FuzzResult campaign =
                fuzz::fuzzKernel(*tu, subject.kernel, sema, fuzz_opts);
            tests += campaign.suite.size();
            mismatches += smokeSubject(subject, *tu, campaign.suite);
        }
        std::printf("interp_speed --smoke: %zu tests x 3 sinks x 2 "
                    "engines, %d differing\n",
                    tests, mismatches);
        return mismatches == 0 ? 0 : 1;
    }

    std::printf("Interpreter throughput per sink (executions/sec)\n");
    std::printf("%-4s %6s %12s %12s %8s %12s %12s %9s\n", "id", "suite",
                "fuzz walk", "fuzz vm", "speedup", "profile vm",
                "co-sim vm", "campaign");

    std::vector<SubjectRow> rows;
    for (const auto &subject : subjects::allSubjects()) {
        auto tu = cir::parse(subject.source);
        cir::SemaResult sema = cir::analyzeOrDie(*tu);

        fuzz::FuzzOptions fuzz_opts;
        fuzz_opts.host_function = subject.host;
        fuzz_opts.rng_seed = subject.fuzz_seed;
        fuzz_opts.max_executions = 800;
        fuzz_opts.mutations_per_input = 12;
        fuzz_opts.max_steps_per_run = kMaxSteps;
        fuzz_opts.engine = interp::EngineKind::TreeWalk;

        // Whole-campaign wall clock per engine (identical simulated work).
        Clock::time_point t0 = Clock::now();
        fuzz::FuzzResult campaign =
            fuzz::fuzzKernel(*tu, subject.kernel, sema, fuzz_opts);
        double walk_campaign = seconds(t0, Clock::now());

        fuzz_opts.engine = interp::EngineKind::Bytecode;
        t0 = Clock::now();
        fuzz::fuzzKernel(*tu, subject.kernel, sema, fuzz_opts);
        double vm_campaign = seconds(t0, Clock::now());

        SubjectRow row;
        row.id = subject.id;
        row.suite_size = int(campaign.suite.size());
        row.campaign_speedup = walk_campaign / vm_campaign;

        using interp::EngineKind;
        const fuzz::TestSuite &suite = campaign.suite;
        const std::string &kernel = subject.kernel;
        interp::Interpreter interp(*tu);
        row.walk_execs_per_sec =
            measureExecsPerSec(suite, 0.4, [&](const auto &args) {
                runWithCoverage(interp, kernel, args, EngineKind::TreeWalk);
            });
        row.vm_execs_per_sec =
            measureExecsPerSec(suite, 0.4, [&](const auto &args) {
                runWithCoverage(interp, kernel, args, EngineKind::Bytecode);
            });
        row.profile_execs_per_sec =
            measureExecsPerSec(suite, 0.4, [&](const auto &args) {
                runWithValueProfile(interp, kernel, args,
                                    EngineKind::Bytecode);
            });
        row.cosim_execs_per_sec =
            measureExecsPerSec(suite, 0.4, [&](const auto &args) {
                runCosim(*tu, kernel, args, EngineKind::Bytecode);
            });

        std::printf("%-4s %6d %12.0f %12.0f %7.2fx %12.0f %12.0f %8.2fx\n",
                    row.id.c_str(), row.suite_size,
                    row.walk_execs_per_sec, row.vm_execs_per_sec,
                    row.speedup(), row.profile_execs_per_sec,
                    row.cosim_execs_per_sec, row.campaign_speedup);
        rows.push_back(row);
    }

    double exec_speedup =
        geomean(rows, [](const SubjectRow &r) { return r.speedup(); });
    double campaign_speedup = geomean(
        rows, [](const SubjectRow &r) { return r.campaign_speedup; });
    std::printf("geomean: %.2fx executions/sec, %.2fx whole campaign\n",
                exec_speedup, campaign_speedup);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    const char *jobs = std::getenv("HETEROGEN_JOBS");
    std::fprintf(f, "{\n  \"bench\": \"interp_speed\",\n");
    std::fprintf(f,
                 "  \"conditions\": {\"build_type\": \"%s\", "
                 "\"cores\": %u, \"engine\": \"%s\", "
                 "\"heterogen_jobs\": \"%s\"},\n",
                 HG_BUILD_TYPE, std::thread::hardware_concurrency(),
                 interp::engineName(interp::defaultEngine()),
                 jobs ? jobs : "");
    std::fprintf(f, "  \"workload\": \"executions/sec per sink: fuzz "
                    "(coverage), profile (value ranges), co-sim (loop "
                    "profile via simulateFpga)\",\n");
    std::fprintf(f, "  \"geomean_exec_speedup\": %.2f,\n", exec_speedup);
    std::fprintf(f, "  \"geomean_campaign_speedup\": %.2f,\n",
                 campaign_speedup);
    std::fprintf(f, "  \"subjects\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SubjectRow &r = rows[i];
        std::fprintf(f,
                     "    {\"id\": \"%s\", \"suite\": %d, "
                     "\"tree_walk_execs_per_sec\": %.0f, "
                     "\"bytecode_execs_per_sec\": %.0f, "
                     "\"exec_speedup\": %.2f, "
                     "\"bytecode_profile_execs_per_sec\": %.0f, "
                     "\"bytecode_cosim_execs_per_sec\": %.0f, "
                     "\"campaign_speedup\": %.2f}%s\n",
                     r.id.c_str(), r.suite_size, r.walk_execs_per_sec,
                     r.vm_execs_per_sec, r.speedup(),
                     r.profile_execs_per_sec, r.cosim_execs_per_sec,
                     r.campaign_speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
