#include "fuzz/fuzzer.h"

#include <exception>

#include "cir/sema.h"
#include "cir/walk.h"
#include "support/diagnostics.h"
#include "support/worker_pool.h"

namespace heterogen::fuzz {

using interp::CoverageMap;
using interp::KernelArg;
using interp::RunOptions;
using interp::RunResult;

namespace {

/** Simulated wall-clock cost of one kernel execution under AFL. */
double
executionMinutes(const RunResult &run)
{
    // Fork-server dispatch plus execution time proportional to work.
    return 0.008 + double(run.steps) / 2.0e8;
}

/** Branch points inside functions reachable from the kernel. */
int
kernelBranchCount(const cir::TranslationUnit &tu,
                  const std::string &kernel)
{
    auto reachable = cir::reachableFunctions(tu, kernel);
    int count = 0;
    auto count_body = [&count](const cir::Block &body) {
        forEachStmt(static_cast<const cir::Stmt &>(body),
                    [&count](const cir::Stmt &s) {
                        switch (s.kind()) {
                          case cir::StmtKind::If:
                          case cir::StmtKind::While:
                          case cir::StmtKind::For:
                            ++count;
                            break;
                          default:
                            break;
                        }
                    });
        forEachExpr(static_cast<const cir::Stmt &>(body),
                    [&count](const cir::Expr &e) {
                        if (e.kind() == cir::ExprKind::Ternary) {
                            ++count;
                        } else if (e.kind() == cir::ExprKind::Binary) {
                            const auto &b =
                                static_cast<const cir::Binary &>(e);
                            if (b.op == cir::BinaryOp::LogAnd ||
                                b.op == cir::BinaryOp::LogOr) {
                                ++count;
                            }
                        }
                    });
    };
    for (const auto &fn : tu.functions) {
        if (reachable.count(fn->name) && fn->body)
            count_body(*fn->body);
    }
    // Struct methods are reachable via method calls the call graph does
    // not track; include them conservatively.
    for (const auto &sd : tu.structs) {
        for (const auto &m : sd->methods) {
            if (m->body)
                count_body(*m->body);
        }
    }
    return count;
}

/**
 * Mutation batches launched beyond the one being committed. A fixed
 * depth: one batch ahead hides part of each batch's slowest-run tail,
 * three hide most of it, and more buys nothing on four cores.
 */
constexpr size_t kLookAheadBatches = 3;

/**
 * One mutation batch: its input, the variants it runs, and the
 * per-variant slots its pool tasks fill. `group` is the last member so
 * it is destroyed first — waiting for the tasks before the slots they
 * write go away.
 */
struct Batch
{
    std::vector<KernelArg> input;
    std::vector<std::vector<KernelArg>> variants;
    std::vector<CoverageMap> locals;
    std::vector<RunResult> runs;
    std::vector<std::exception_ptr> errors;
    TaskGroup group;

    explicit Batch(WorkerPool *pool) : group(pool) {}
};

std::vector<cir::TypePtr>
kernelParamTypes(const cir::TranslationUnit &tu, const std::string &kernel)
{
    const cir::FunctionDecl *fn = tu.findFunction(kernel);
    if (!fn)
        fatal("fuzzer: no such kernel function: ", kernel);
    std::vector<cir::TypePtr> types;
    for (const auto &p : fn->params)
        types.push_back(p.type);
    return types;
}

} // namespace

FuzzResult
fuzzKernel(const cir::TranslationUnit &tu, const std::string &kernel,
           const cir::SemaResult &sema, const FuzzOptions &options)
{
    RunContext ctx;
    return fuzzKernel(ctx, tu, kernel, sema, options);
}

FuzzResult
fuzzKernel(RunContext &ctx, const cir::TranslationUnit &tu,
           const std::string &kernel, const cir::SemaResult &sema,
           const FuzzOptions &options)
{
    SpanScope span(ctx, "fuzz", Budget::minutes(options.budget_minutes));

    FuzzResult result;
    (void)sema;
    result.coverage.setNumBranches(kernelBranchCount(tu, kernel));

    Rng rng(options.rng_seed);
    Mutator mutator(kernelParamTypes(tu, kernel), rng);

    // One interpreter for the whole campaign: the bytecode engine
    // compiles the program once and every execution reuses it.
    interp::Interpreter interp(tu);

    // --- getKernelSeed (Algorithm 1, line 4) -----------------------------
    std::vector<KernelArg> seed;
    if (!options.host_function.empty()) {
        RunOptions host_opts;
        host_opts.capture_function = kernel;
        host_opts.captured_args = &seed;
        host_opts.max_steps = options.max_steps_per_run;
        host_opts.trace = &ctx;
        host_opts.engine = options.engine;
        interp.run(options.host_function, options.host_args, host_opts);
    }
    if (seed.empty())
        seed = mutator.randomInput();

    std::deque<std::vector<KernelArg>> queue;
    queue.push_back(seed);

    std::unique_ptr<WorkerPool> owned_pool;
    WorkerPool *pool = options.pool;
    if (!pool) {
        owned_pool = std::make_unique<WorkerPool>(options.threads);
        pool = owned_pool.get();
    }

    /** Merge new coverage and count the freshly covered edges. */
    auto mergeCoverage = [&](const CoverageMap &local) {
        int64_t before = result.coverage.hitCount();
        result.coverage.merge(local);
        ctx.count("fuzz.coverage_edges",
                  result.coverage.hitCount() - before);
    };

    /**
     * Corpus bookkeeping for one executed input, strictly in input
     * order. The coverage decision (coversNew) depends on the corpus
     * state left by earlier inputs, so this stays serial — only the
     * kernel executions themselves fan out.
     */
    auto bookkeep = [&](const std::vector<KernelArg> &args,
                        const CoverageMap &local, const RunResult &run) {
        result.executions += 1;
        result.suite.noteRunSteps(run.steps);
        ctx.count("fuzz.executions");
        ctx.charge(executionMinutes(run));
        if (result.coverage.coversNew(local)) {
            mergeCoverage(local);
            result.last_progress_minutes = span.minutes();
            if (result.suite.add(args))
                queue.push_back(args);
        } else if (static_cast<int>(result.suite.size()) <
                   options.min_suite_size) {
            result.suite.add(args);
        }
    };

    // Kernel runs stay on this thread until one takes
    // kParallelMinSteps: the seed run sets the starting mode, and the
    // first heavy run switches to the pool for good.
    bool inline_runs = true;

    // The seed itself is always executed and retained.
    {
        CoverageMap local(result.coverage.numBranches());
        RunOptions opts;
        opts.coverage = &local;
        opts.max_steps = options.max_steps_per_run;
        opts.trace = &ctx;
        opts.engine = options.engine;
        RunResult run = interp.run(kernel, seed, opts);
        result.executions += 1;
        ctx.count("fuzz.executions");
        ctx.charge(executionMinutes(run));
        mergeCoverage(local);
        result.last_progress_minutes = span.minutes();
        result.suite.add(seed);
        result.suite.noteRunSteps(run.steps);
        inline_runs = run.steps < interp::kParallelMinSteps;
    }

    /**
     * Run variant i of a batch into its private slots, on whichever
     * thread calls it. Runs are not counted on the trace here —
     * commit() does that — so a batch launched ahead and then dropped
     * leaves none.
     */
    auto execute = [&interp, &kernel, &options](Batch &b, size_t i) {
        try {
            RunOptions opts;
            opts.coverage = &b.locals[i];
            opts.max_steps = options.max_steps_per_run;
            opts.engine = options.engine;
            b.runs[i] = interp.run(kernel, b.variants[i], opts);
            // Only the clock and counters read a batch's runs.
            b.runs[i].out_args.clear();
        } catch (...) {
            b.errors[i] = std::current_exception();
        }
    };

    // Launched, not yet committed batches in input order, and their
    // total run count.
    std::deque<std::unique_ptr<Batch>> in_flight;
    size_t in_flight_runs = 0;

    /**
     * Launch the mutation batch of the queue's front input into private
     * per-variant coverage maps: inline while runs stay light, then
     * across the pool from the first heavy run on.
     */
    auto launch = [&] {
        auto batch = std::make_unique<Batch>(pool);
        Batch &b = *batch;
        b.input = std::move(queue.front());
        queue.pop_front();
        b.variants = mutator.mutate(b.input, options.mutations_per_input);
        size_t n = b.variants.size();
        b.locals.assign(n, CoverageMap(result.coverage.numBranches()));
        b.runs.resize(n);
        b.errors.resize(n);
        size_t i = 0;
        while (inline_runs && i < n) {
            execute(b, i);
            inline_runs = b.runs[i++].steps < interp::kParallelMinSteps;
        }
        for (; i < n; ++i)
            b.group.run([execute, &b, i] { execute(b, i); });
        in_flight_runs += n;
        in_flight.push_back(std::move(batch));
    };

    /**
     * Reduce the oldest in-flight batch serially in input order, with
     * the serial loop's exact stop conditions: a budget or execution
     * cap reached mid-batch discards the tail, so the outcome matches
     * the one-at-a-time path byte for byte. Every run of the batch is
     * counted, the uncommitted tail included.
     */
    auto commit = [&] {
        std::unique_ptr<Batch> batch = std::move(in_flight.front());
        in_flight.pop_front();
        batch->group.wait();
        in_flight_runs -= batch->runs.size();
        for (const std::exception_ptr &error : batch->errors) {
            if (error)
                std::rethrow_exception(error);
        }
        for (const RunResult &run : batch->runs)
            interp::countRun(ctx, run);
        for (size_t i = 0; i < batch->variants.size(); ++i) {
            if (result.executions >= options.max_executions ||
                ctx.shouldStop()) {
                break; // the tail stays out of the corpus and clock
            }
            bookkeep(batch->variants[i], batch->locals[i], batch->runs[i]);
        }
        // Keep cycling the corpus.
        queue.push_back(std::move(batch->input));
    };

    // --- fuzzing loop (Algorithm 1, lines 7-12) --------------------------
    // Committing a batch only appends to the queue, so while entries
    // remain behind the one being committed, the next inputs are
    // already fixed: launch their batches ahead (mutating in queue
    // order keeps the RNG draws identical) unless the serial loop would
    // not reach them before the execution cap. Batches run inline while
    // runs are light, and a one-thread pool runs tasks inline; launched
    // ahead there, they would only run serially and be wasted at a
    // plateau or cap stop, so neither launches anything ahead.
    while ((!in_flight.empty() || !queue.empty()) &&
           result.executions < options.max_executions &&
           !ctx.shouldStop()) {
        if (span.minutes() - result.last_progress_minutes >
            options.plateau_minutes) {
            break; // coverage plateaued; AFL timing indicator protocol
        }
        if (in_flight.empty())
            launch();
        const size_t look_ahead = pool->threads() > 1 && !inline_runs
                                      ? kLookAheadBatches
                                      : 0;
        while (in_flight.size() <= look_ahead && !queue.empty() &&
               result.executions + in_flight_runs <
                   size_t(options.max_executions)) {
            launch();
        }
        commit();
    }
    // Batches launched past a stop are waited for and dropped.
    in_flight.clear();
    result.sim_minutes = span.minutes();
    ctx.count("fuzz.suite_size",
              static_cast<int64_t>(result.suite.size()));
    return result;
}

CoverageMap
measureCoverage(const cir::TranslationUnit &tu, const std::string &kernel,
                const cir::SemaResult &sema, const TestSuite &suite,
                uint64_t max_steps_per_run)
{
    (void)sema;
    int branches = kernelBranchCount(tu, kernel);
    CoverageMap total(branches);
    interp::Interpreter interp(tu);
    for (const TestCase &t : suite.cases()) {
        CoverageMap local(branches);
        RunOptions opts;
        opts.coverage = &local;
        opts.max_steps = max_steps_per_run;
        interp.run(kernel, t.args, opts);
        total.merge(local);
    }
    return total;
}

} // namespace heterogen::fuzz
