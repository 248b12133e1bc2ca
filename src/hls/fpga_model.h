/**
 * @file
 * FPGA latency model (co-simulation back end).
 *
 * Functionally executes the kernel with the CIR interpreter, then replays
 * the recorded loop profile applying pragma-driven acceleration: pipeline
 * amortizes per-iteration body latency, unroll duplicates processing
 * elements bounded by memory ports (array partitioning widens them),
 * dataflow overlaps sibling top-level loops. The result is the
 * "simulation latency" the paper reports for FPGA versions.
 */

#ifndef HETEROGEN_HLS_FPGA_MODEL_H
#define HETEROGEN_HLS_FPGA_MODEL_H

#include <memory>

#include "cir/ast.h"
#include "hls/config.h"
#include "interp/interp.h"

namespace heterogen::hls {

/** Outcome of one FPGA co-simulation. */
struct FpgaRunResult
{
    /** Functional outcome (traps, outputs) from the interpreter. */
    interp::RunResult run;
    /** Modeled FPGA cycle count after pragma acceleration. */
    uint64_t fpga_cycles = 0;
    /** Modeled kernel latency in milliseconds at the configured clock. */
    double millis = 0;
    /** Host<->device transfer cycles included in fpga_cycles. */
    uint64_t transfer_cycles = 0;
    /** FIFO backpressure stall cycles included in fpga_cycles
     * (streaming dataflow regions only — hls/dataflow.h). */
    uint64_t fifo_stall_cycles = 0;
    /** Processes across all streaming dataflow regions of the design. */
    int stream_processes = 0;
};

/** Per-loop acceleration factors the model derived (for tests/reports). */
struct LoopAcceleration
{
    int node_id = -1;
    double pipeline_factor = 1.0;
    double unroll_factor = 1.0;
    double dataflow_factor = 1.0;

    double total() const
    {
        return pipeline_factor * unroll_factor * dataflow_factor;
    }
};

/**
 * Co-simulation of one design. Construction gathers what depends only
 * on the design — per-loop pragma facts and the streaming dataflow
 * regions with their FIFO stalls — and the interpreter compiles the
 * design on its first run, so a campaign pays both once however many
 * inputs it runs. run() may be called concurrently (the difftest
 * fan-out does); `tu` must outlive the simulator.
 */
class FpgaSimulator
{
  public:
    FpgaSimulator(const cir::TranslationUnit &tu, const HlsConfig &config);
    ~FpgaSimulator();

    FpgaSimulator(const FpgaSimulator &) = delete;
    FpgaSimulator &operator=(const FpgaSimulator &) = delete;

    /** Co-simulate `kernel` on `args`; see simulateFpga. */
    FpgaRunResult run(const std::string &kernel,
                      const std::vector<interp::KernelArg> &args,
                      interp::RunOptions options = {},
                      std::vector<LoopAcceleration> *accel_out =
                          nullptr);

  private:
    struct Design;

    double clock_mhz_;
    std::unique_ptr<const Design> design_;
    interp::Interpreter interp_;
};

/**
 * Co-simulate `kernel` on the modeled FPGA: a one-shot FpgaSimulator.
 *
 * @param tu        design (must be HLS-clean for meaningful latency)
 * @param config    toolchain configuration (clock)
 * @param kernel    kernel function name
 * @param args      kernel arguments
 * @param options   interpreter knobs; coverage/profile hooks pass through
 * @param accel_out optional: per-loop acceleration factors
 */
FpgaRunResult simulateFpga(const cir::TranslationUnit &tu,
                           const HlsConfig &config,
                           const std::string &kernel,
                           const std::vector<interp::KernelArg> &args,
                           interp::RunOptions options = {},
                           std::vector<LoopAcceleration> *accel_out =
                               nullptr);

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_FPGA_MODEL_H
