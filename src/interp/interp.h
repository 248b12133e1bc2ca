/**
 * @file
 * Interpreter for CIR programs: the bytecode VM every pipeline stage
 * runs, and the tree walker it is checked against (see EngineKind).
 *
 * The interpreter executes a translation unit's functions with precise
 * memory safety (traps), branch-coverage recording, value-range profiling,
 * and a CPU cycle model used as the paper's "original C on CPU" latency
 * baseline. The same engine, driven through hls::FpgaSimulator, provides
 * functional FPGA co-simulation.
 *
 * Concurrency contract: the engine holds no mutable process-wide state —
 * memory, frames, static-local stream bindings and the RNG-free step
 * accounting all live per run — so any number of runs may execute
 * concurrently over the same (const) TranslationUnit, provided the
 * RunOptions output sinks (coverage/profile/captured_args) point at
 * distinct objects per run. The parallel difftest and fuzzing batch
 * layers rely on exactly this; tests/test_parallel.cc asserts the
 * resulting thread-count invariance.
 */

#ifndef HETEROGEN_INTERP_INTERP_H
#define HETEROGEN_INTERP_INTERP_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "interp/coverage.h"
#include "interp/kernel_arg.h"
#include "interp/loop_profile.h"
#include "interp/memory.h"
#include "interp/profile.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::interp {

namespace bytecode {
struct Program;
}

/**
 * Per-operation cycle costs for the CPU latency model (2 GHz core).
 * Shared by the tree walker and the bytecode VM so the two engines
 * charge identical cycles by construction.
 */
struct CpuCosts
{
    static constexpr uint64_t kIntAlu = 1;
    static constexpr uint64_t kIntMul = 3;
    static constexpr uint64_t kIntDiv = 12;
    static constexpr uint64_t kFloatAlu = 3;
    static constexpr uint64_t kFloatMul = 5;
    static constexpr uint64_t kFloatDiv = 15;
    static constexpr uint64_t kMem = 2;
    static constexpr uint64_t kBranch = 1;
    static constexpr uint64_t kCall = 6;
    static constexpr uint64_t kMath = 20;
    static constexpr uint64_t kStream = 2;
};

/**
 * Which execution engine runs the program. All engines are observably
 * bit-identical (docs/INTERP.md documents the contract); they differ
 * only in host-side speed.
 */
enum class EngineKind
{
    TreeWalk,     ///< the reference AST walker
    Bytecode,     ///< compile once, dispatch-loop VM (the fast path)
    Differential, ///< run both, compare every observable, report drift
};

/**
 * The engine every pipeline stage runs: Bytecode. The tree walker is
 * the test reference, reachable only by setting RunOptions::engine or
 * FuzzOptions::engine explicitly (and as the bytecode compiler's
 * fallback for constructs it does not support).
 */
EngineKind defaultEngine();

/** Canonical name for an engine ("tree_walk", ...). */
const char *engineName(EngineKind engine);

/**
 * One observed branch decision with the clock state at the record.
 * Sequences of these are the differential engine's alignment points:
 * two bit-identical runs produce identical event sequences, so the
 * first differing event localizes a divergence in time.
 */
struct BranchEvent
{
    int branch_id = -1;
    bool taken = false;
    uint64_t steps = 0;
    uint64_t cycles = 0;

    bool operator==(const BranchEvent &other) const = default;
};

/** Sink recording every recordBranch call of a run, in order. */
struct BranchEventLog
{
    std::vector<BranchEvent> events;
};

/** Knobs for one interpreter run. */
struct RunOptions
{
    /** Execution engine (see EngineKind and defaultEngine). */
    EngineKind engine = defaultEngine();
    /** Abort with a trap after this many evaluation steps. */
    uint64_t max_steps = 20'000'000;
    /** Abort with a trap beyond this call depth (recursion guard). */
    int max_call_depth = 256;
    /** Record branch edges here when non-null. */
    CoverageMap *coverage = nullptr;
    /** Record value ranges here when non-null. */
    ValueProfile *profile = nullptr;
    /** Record per-loop cycle attribution here when non-null. */
    LoopProfile *loop_profile = nullptr;
    /**
     * When non-empty: the first call to this function captures its
     * evaluated arguments into captured_args (kernel seed extraction).
     */
    std::string capture_function;
    std::vector<KernelArg> *captured_args = nullptr;
    /**
     * When non-null, each run bumps the countRun counters on the spine
     * (support/run_context.h). Counter updates are thread-safe, so
     * concurrent runs (parallel difftest, profile) may share one
     * context; totals are thread-count invariant because they are
     * plain integer sums. Runs whose counting is decided later (the
     * fuzzer's look-ahead batches) leave this null and call countRun
     * themselves.
     */
    RunContext *trace = nullptr;
    /**
     * Differential-engine internal: when non-null, every recordBranch
     * appends a BranchEvent here. Costs nothing when unset.
     */
    BranchEventLog *branch_log = nullptr;
};

/** Outcome of one run. */
struct RunResult
{
    bool ok = false;
    std::string trap; ///< trap message when !ok
    bool has_ret = false;
    KernelArg ret;
    /** Post-run state of every parameter (arrays/streams reflect writes). */
    std::vector<KernelArg> out_args;
    uint64_t cycles = 0;
    uint64_t steps = 0;
    /** The engine that ran: the tree walker when the bytecode
     * compiler bailed on an unsupported construct. */
    EngineKind engine = EngineKind::TreeWalk;
    /**
     * Engine::Differential only: empty when both engines agreed on
     * every observable; otherwise a description of the first diverging
     * site (branch-event index, then summary field). Always empty for
     * the single-engine modes.
     */
    std::string divergence;

    /** Wall-clock estimate at the CPU model's 2 GHz clock. */
    double cpuMillis() const { return double(cycles) * 0.5e-6; }

    /** Behavioural identity: return value, out state and trap equality. */
    bool sameBehavior(const RunResult &other) const;
};

/**
 * Bump interp.runs, interp.execs.<engine>, interp.steps and
 * interp.traps for one finished run on the context's innermost span.
 */
void countRun(RunContext &trace, const RunResult &result);

/**
 * Steps at which one run pays for its handoff to a pool thread. The
 * fan-out sites (fuzz batches, the profile stage, difftest) run work
 * inline on the calling thread while every run so far took fewer steps,
 * and hand the rest to the pool from the first run that takes as many:
 * below it, waking a worker and collecting its result cost more host
 * time than the run. Where a run executes never changes its result.
 */
constexpr uint64_t kParallelMinSteps = 2000;

/**
 * parallelForEach's `inline_below` for runs of a program whose heaviest
 * run seen so far took `max_steps`: start inline only while that is
 * light, and hand off from the first run of kParallelMinSteps steps.
 */
constexpr uint64_t
inlineRunsBelow(uint64_t max_steps)
{
    return max_steps < kParallelMinSteps ? kParallelMinSteps : 0;
}

/**
 * Interpreter facade bound to one translation unit.
 *
 * Each call to run() executes with fresh memory and fresh globals; struct
 * layouts — and, for the bytecode engine, the compiled program — are
 * cached across runs. Hot loops (fuzzing, difftest) construct one
 * Interpreter per campaign and call the per-run-options overload so the
 * compile cost is paid once; compilation is thread-safe, so concurrent
 * run() calls over one instance are fine.
 */
class Interpreter
{
  public:
    explicit Interpreter(const cir::TranslationUnit &tu,
                         RunOptions options = {});
    ~Interpreter();

    Interpreter(const Interpreter &) = delete;
    Interpreter &operator=(const Interpreter &) = delete;

    /**
     * Run `function` with the given kernel arguments.
     * Traps are reported in the result, never thrown.
     */
    RunResult run(const std::string &function,
                  const std::vector<KernelArg> &args);

    /** Same, with per-run options (engine, sinks, limits). */
    RunResult run(const std::string &function,
                  const std::vector<KernelArg> &args,
                  const RunOptions &options);

  private:
    const bytecode::Program *compiled(RunContext *trace);
    RunResult runDifferential(const std::string &function,
                              const std::vector<KernelArg> &args,
                              const RunOptions &options);

    const cir::TranslationUnit &tu_;
    RunOptions options_;
    std::once_flag compile_once_;
    std::unique_ptr<const bytecode::Program> program_;
    bool compile_failed_ = false;
};

/** Convenience one-shot run. */
RunResult runProgram(const cir::TranslationUnit &tu,
                     const std::string &function,
                     const std::vector<KernelArg> &args,
                     RunOptions options = {});

} // namespace heterogen::interp

#endif // HETEROGEN_INTERP_INTERP_H
