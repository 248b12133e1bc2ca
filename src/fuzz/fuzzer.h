/**
 * @file
 * Coverage-guided kernel-input generation (the paper's Algorithm 1).
 *
 * Seeds come from intermediate program state captured at the kernel entry
 * during a host run (getKernelSeed); mutation is HLS-type-valid; feedback
 * is branch coverage of the original C kernel. The loop stops when the
 * simulated clock passes the budget or coverage plateaus for the
 * configured window — mirroring the paper's "30 minutes since the last
 * new path" protocol.
 */

#ifndef HETEROGEN_FUZZ_FUZZER_H
#define HETEROGEN_FUZZ_FUZZER_H

#include <deque>
#include <string>

#include "cir/ast.h"
#include "cir/sema.h"
#include "fuzz/mutator.h"
#include "fuzz/testsuite.h"
#include "interp/interp.h"
#include "support/run_context.h"

namespace heterogen {
class WorkerPool;
}

namespace heterogen::fuzz {

/** Fuzzing-campaign knobs. */
struct FuzzOptions
{
    /** Optional host entry; when set, the seed is captured from its run
     * at the kernel boundary. */
    std::string host_function;
    /** Host-run arguments (usually empty). */
    std::vector<interp::KernelArg> host_args;
    /** Deterministic seed. */
    uint64_t rng_seed = 1;
    /** Variants generated per queue entry. */
    int mutations_per_input = 16;
    /** Hard cap on kernel executions. */
    int max_executions = 20000;
    /** Stop after this much simulated fuzzing time (minutes). */
    double budget_minutes = 240.0;
    /** Stop when no new coverage for this many simulated minutes. */
    double plateau_minutes = 30.0;
    /**
     * Keep at least this many inputs in the regression suite even when
     * they add no new coverage: differential testing wants a diverse
     * corpus, not just the coverage frontier.
     */
    int min_suite_size = 48;
    /** Interpreter step cap per execution. */
    uint64_t max_steps_per_run = 2'000'000;
    /**
     * Interpreter engine for the host run and every kernel execution.
     * All engines are bit-identical (docs/INTERP.md), so the campaign's
     * corpus, coverage and simulated clock do not depend on the choice.
     * Production leaves the bytecode default; setting TreeWalk times or
     * cross-checks the reference walker on a direct fuzzKernel call.
     */
    interp::EngineKind engine = interp::defaultEngine();
    /**
     * Host threads executing the mutation batches when `pool` is unset
     * (0 = HETEROGEN_JOBS / hardware default). Purely an execution
     * detail. Kernel runs stay inline on the calling thread, one batch
     * at a time, while the seed run and every run since took fewer than
     * interp::kParallelMinSteps steps; from the first run that takes as
     * many, the rest of its batch and every later batch go to the pool,
     * where up to three batches whose inputs are already fixed run
     * ahead of the one being reduced. Mutation drawing and corpus
     * bookkeeping stay serial in input order either way, so the final
     * corpus, coverage, simulated clock and trace are byte-identical at
     * any thread count (tests/test_parallel.cc asserts this). One
     * thread runs one batch at a time.
     */
    int threads = 0;
    /**
     * Shared host pool for the execution batches (non-owning; overrides
     * `threads` when set). HeteroGen::run always sets it, sharing one
     * pool between the fuzz and profile stages; a campaign whose runs
     * all stay light never submits to it, so its threads never start
     * (WorkerPool starts them on the first submit). Batch waits are per
     * batch, so many concurrent campaigns — the conversion service's
     * jobs — may share one pool without changing any campaign's outcome.
     */
    WorkerPool *pool = nullptr;
};

/** Campaign outcome. */
struct FuzzResult
{
    /** Coverage-increasing inputs retained as the regression suite. */
    TestSuite suite;
    interp::CoverageMap coverage;
    int executions = 0;
    /** Simulated wall-clock minutes the campaign took. */
    double sim_minutes = 0;
    /** Simulated minutes when the last new edge was found. */
    double last_progress_minutes = 0;

    double branchCoverage() const { return coverage.coverage(); }
};

/**
 * Run one fuzzing campaign against `kernel` in `tu`.
 * The TU must already be sema-analyzed (branch ids assigned).
 */
FuzzResult fuzzKernel(const cir::TranslationUnit &tu,
                      const std::string &kernel,
                      const cir::SemaResult &sema,
                      const FuzzOptions &options = {});

/**
 * Spine-aware variant: opens a "fuzz" span budgeted at
 * options.budget_minutes on the context, charges every simulated
 * execution minute to it, bumps fuzz.* counters (executions,
 * coverage_edges, suite_size), and stops early on ctx cancellation or
 * an exhausted enclosing budget. With a fresh context this produces a
 * byte-identical FuzzResult to the plain overload.
 */
FuzzResult fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
                      const std::string &kernel,
                      const cir::SemaResult &sema,
                      const FuzzOptions &options = {});

/**
 * Measure the branch coverage an existing (handcrafted) suite achieves —
 * the paper's Table 4 "Existing tests" columns.
 */
interp::CoverageMap measureCoverage(const cir::TranslationUnit &tu,
                                    const std::string &kernel,
                                    const cir::SemaResult &sema,
                                    const TestSuite &suite,
                                    uint64_t max_steps_per_run =
                                        2'000'000);

} // namespace heterogen::fuzz

#endif // HETEROGEN_FUZZ_FUZZER_H
