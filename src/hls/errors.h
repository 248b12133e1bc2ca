/**
 * @file
 * HLS diagnostic catalogue.
 *
 * The simulated toolchain emits Vivado-HLS-style diagnostics; HeteroGen's
 * repair localizer classifies them back into the paper's six compatibility
 * categories by keyword, exactly as §5.2 describes.
 */

#ifndef HETEROGEN_HLS_ERRORS_H
#define HETEROGEN_HLS_ERRORS_H

#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace heterogen::hls {

/**
 * The paper's six HLS-compatibility error categories (Figure 3), plus
 * the streaming-dataflow category the FIFO-aware scheduler introduced
 * (hang/backpressure diagnostics in dataflow regions with explicit
 * stream channels — docs/STREAMING.md). The streaming category is
 * appended last so the paper's pie-chart shares and the forum-corpus
 * generation remain byte-identical.
 */
enum class ErrorCategory
{
    DynamicDataStructures,
    UnsupportedDataTypes,
    DataflowOptimization,
    LoopParallelization,
    StructAndUnion,
    TopFunction,
    StreamingDataflow,
};

/** Human-readable category label (matches the paper's terms). */
std::string categoryName(ErrorCategory category);

/** Stable snake_case identifier (trace counter keys, JSON fields). */
std::string categorySlug(ErrorCategory category);

/** Number of categories (pie-chart denominators, iteration). */
constexpr int kNumErrorCategories = 7;

/** All categories in a fixed order. */
const std::vector<ErrorCategory> &allCategories();

/** One diagnostic produced by the simulated HLS toolchain. */
struct HlsError
{
    /** Vivado-style code, e.g. "XFORM 202-876" or "SYNCHK-61". */
    std::string code;
    /** Full message text, e.g. "Synthesizability check failed: ...". */
    std::string message;
    /** Ground-truth category (the checker knows; the localizer re-derives
     * it from the message text alone). */
    ErrorCategory category = ErrorCategory::DynamicDataStructures;
    /** Offending symbol (variable/function/struct name) when known. */
    std::string symbol;
    SourceLoc loc;

    /** "ERROR: [code] message" exactly as a log line. */
    std::string str() const;
};

/** Factory helpers for every diagnostic the checker can produce. */
namespace diag {

HlsError recursiveFunction(const std::string &fn, SourceLoc loc);
HlsError dynamicAllocation(const std::string &var, SourceLoc loc);
HlsError unknownArraySize(const std::string &var, SourceLoc loc);
HlsError longDoubleType(const std::string &var, SourceLoc loc);
HlsError ambiguousOverload(const std::string &callee, SourceLoc loc);
HlsError pointerUsage(const std::string &var, SourceLoc loc);
HlsError implicitFpgaConversion(const std::string &context, SourceLoc loc);
HlsError dataflowArgument(const std::string &var, SourceLoc loc);
HlsError arrayPartitionMismatch(const std::string &var, long size,
                                long factor, SourceLoc loc);
HlsError preSynthesisFailed(const std::string &detail, SourceLoc loc);
HlsError variableTripCount(const std::string &detail, SourceLoc loc);
HlsError unsynthesizableStruct(const std::string &name, SourceLoc loc);
HlsError nonStaticStream(const std::string &var, SourceLoc loc);
HlsError unionNotSupported(const std::string &name, SourceLoc loc);
HlsError missingTopFunction(const std::string &name);
HlsError invalidClock(double mhz);
HlsError unknownDevice(const std::string &device);
HlsError badInterfacePragma(const std::string &detail, SourceLoc loc);
/** A pragma where HLS cannot apply it (e.g. unroll outside a loop). */
HlsError misplacedPragma(const std::string &detail, ErrorCategory category,
                         const std::string &symbol, SourceLoc loc);
HlsError streamDeadlock(const std::string &chan, long required, long depth,
                        SourceLoc loc);
HlsError streamStarvation(const std::string &chan, SourceLoc loc);
HlsError unserializedDataflow(const std::string &var, SourceLoc loc);

/**
 * The simulated toolchain itself failed at `site` (injected fault that
 * persisted through every retry) — not a property of the design. Only
 * produced by the fault-injection layer (support/faults.h).
 */
HlsError toolFailure(const std::string &site);

} // namespace diag

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_ERRORS_H
