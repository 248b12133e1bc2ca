#include "hls/errors.h"

namespace heterogen::hls {

std::string
categoryName(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::DynamicDataStructures:
        return "Dynamic Data Structures";
      case ErrorCategory::UnsupportedDataTypes:
        return "Unsupported Data Types";
      case ErrorCategory::DataflowOptimization:
        return "Dataflow Optimization";
      case ErrorCategory::LoopParallelization:
        return "Loop Parallelization";
      case ErrorCategory::StructAndUnion:
        return "Struct and Union";
      case ErrorCategory::TopFunction:
        return "Top Function";
      case ErrorCategory::StreamingDataflow:
        return "Streaming Dataflow";
    }
    return "?";
}

std::string
categorySlug(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::DynamicDataStructures:
        return "dynamic_data_structures";
      case ErrorCategory::UnsupportedDataTypes:
        return "unsupported_data_types";
      case ErrorCategory::DataflowOptimization:
        return "dataflow_optimization";
      case ErrorCategory::LoopParallelization:
        return "loop_parallelization";
      case ErrorCategory::StructAndUnion:
        return "struct_and_union";
      case ErrorCategory::TopFunction:
        return "top_function";
      case ErrorCategory::StreamingDataflow:
        return "streaming_dataflow";
    }
    return "unknown";
}

const std::vector<ErrorCategory> &
allCategories()
{
    static const std::vector<ErrorCategory> all = {
        ErrorCategory::DynamicDataStructures,
        ErrorCategory::UnsupportedDataTypes,
        ErrorCategory::DataflowOptimization,
        ErrorCategory::LoopParallelization,
        ErrorCategory::StructAndUnion,
        ErrorCategory::TopFunction,
        ErrorCategory::StreamingDataflow,
    };
    return all;
}

std::string
HlsError::str() const
{
    return "ERROR: [" + code + "] " + message;
}

namespace diag {

namespace {

HlsError
make(std::string code, std::string message, ErrorCategory category,
     std::string symbol, SourceLoc loc)
{
    HlsError e;
    e.code = std::move(code);
    e.message = std::move(message);
    e.category = category;
    e.symbol = std::move(symbol);
    e.loc = loc;
    return e;
}

} // namespace

HlsError
recursiveFunction(const std::string &fn, SourceLoc loc)
{
    return make("XFORM 202-876",
                "Synthesizability check failed: recursive functions are "
                "not supported ('" + fn + "').",
                ErrorCategory::DynamicDataStructures, fn, loc);
}

HlsError
dynamicAllocation(const std::string &var, SourceLoc loc)
{
    return make("SYNCHK 200-31",
                "dynamic memory allocation/deallocation is not supported"
                " (variable '" + var + "').",
                ErrorCategory::DynamicDataStructures, var, loc);
}

HlsError
unknownArraySize(const std::string &var, SourceLoc loc)
{
    return make("SYNCHK 200-61",
                "unsupported memory access on variable '" + var +
                    "' which is (or contains) an array with unknown size "
                    "at compile time.",
                ErrorCategory::DynamicDataStructures, var, loc);
}

HlsError
longDoubleType(const std::string &var, SourceLoc loc)
{
    return make("SYNCHK 200-11",
                "type 'long double' on variable '" + var +
                    "' is not synthesizable.",
                ErrorCategory::UnsupportedDataTypes, var, loc);
}

HlsError
ambiguousOverload(const std::string &callee, SourceLoc loc)
{
    return make("SYNCHK 200-12",
                "Call of overloaded '" + callee + "()' is ambiguous.",
                ErrorCategory::UnsupportedDataTypes, callee, loc);
}

HlsError
pointerUsage(const std::string &var, SourceLoc loc)
{
    return make("SYNCHK 200-41",
                "unsupported pointer usage on variable '" + var +
                    "'; pointers are not synthesizable.",
                ErrorCategory::UnsupportedDataTypes, var, loc);
}

HlsError
implicitFpgaConversion(const std::string &context, SourceLoc loc)
{
    return make("SYNCHK 200-13",
                "implicit type conversion in '" + context +
                    "' is not supported for custom FPGA types; explicit "
                    "type casting required.",
                ErrorCategory::UnsupportedDataTypes, context, loc);
}

HlsError
dataflowArgument(const std::string &var, SourceLoc loc)
{
    return make("XFORM 203-711",
                "Argument '" + var + "' failed dataflow checking.",
                ErrorCategory::DataflowOptimization, var, loc);
}

HlsError
arrayPartitionMismatch(const std::string &var, long size, long factor,
                       SourceLoc loc)
{
    return make("XFORM 203-711",
                "Array '" + var + "' failed dataflow checking: size " +
                    std::to_string(size) + " is not a multiple of "
                    "partition factor " + std::to_string(factor) + ".",
                ErrorCategory::DataflowOptimization, var, loc);
}

HlsError
preSynthesisFailed(const std::string &detail, SourceLoc loc)
{
    return make("HLS 200-70",
                "Pre-synthesis failed: unroll " + detail + ".",
                ErrorCategory::LoopParallelization, "", loc);
}

HlsError
variableTripCount(const std::string &detail, SourceLoc loc)
{
    return make("XFORM 203-113",
                "cannot unroll loop: " + detail +
                    " (variable trip count).",
                ErrorCategory::LoopParallelization, "", loc);
}

HlsError
unsynthesizableStruct(const std::string &name, SourceLoc loc)
{
    return make("SYNCHK 200-71",
                "Argument 'this' has an unsynthesizable struct type '" +
                    name + "' (no explicit constructor).",
                ErrorCategory::StructAndUnion, name, loc);
}

HlsError
nonStaticStream(const std::string &var, SourceLoc loc)
{
    return make("XFORM 203-712",
                "stream '" + var +
                    "' connecting struct instances in a DATAFLOW region "
                    "must be static.",
                ErrorCategory::StructAndUnion, var, loc);
}

HlsError
unionNotSupported(const std::string &name, SourceLoc loc)
{
    return make("SYNCHK 200-72",
                "union type '" + name + "' is not synthesizable.",
                ErrorCategory::StructAndUnion, name, loc);
}

HlsError
missingTopFunction(const std::string &name)
{
    return make("HLS 200-10",
                "Cannot find the top function '" + name +
                    "' in the design.",
                ErrorCategory::TopFunction, name, SourceLoc{});
}

HlsError
invalidClock(double mhz)
{
    return make("HLS 200-24",
                "top function configuration: invalid clock frequency " +
                    std::to_string(mhz) + " MHz (supported: 50-500 MHz).",
                ErrorCategory::TopFunction, "", SourceLoc{});
}

HlsError
unknownDevice(const std::string &device)
{
    return make("HLS 200-25",
                "top function configuration: unknown device '" + device +
                    "'.",
                ErrorCategory::TopFunction, device, SourceLoc{});
}

HlsError
badInterfacePragma(const std::string &detail, SourceLoc loc)
{
    return make("HLS 200-26",
                "top function interface configuration error: " + detail +
                    ".",
                ErrorCategory::TopFunction, "", loc);
}

HlsError
misplacedPragma(const std::string &detail, ErrorCategory category,
                const std::string &symbol, SourceLoc loc)
{
    return make("HLS 214-114", "Misplaced pragma: " + detail + ".",
                category, symbol, loc);
}

HlsError
streamDeadlock(const std::string &chan, long required, long depth,
               SourceLoc loc)
{
    return make("XFORM 203-713",
                "deadlock detected in DATAFLOW region: fifo '" + chan +
                    "' of depth " + std::to_string(depth) +
                    " requires depth " + std::to_string(required) +
                    " to avoid backpressure stall.",
                ErrorCategory::StreamingDataflow, chan, loc);
}

HlsError
streamStarvation(const std::string &chan, SourceLoc loc)
{
    return make("XFORM 203-714",
                "fifo '" + chan +
                    "' is read in a DATAFLOW region but never written; "
                    "the consumer process is starved (fifo underflow).",
                ErrorCategory::StreamingDataflow, chan, loc);
}

HlsError
unserializedDataflow(const std::string &var, SourceLoc loc)
{
    return make("XFORM 203-715",
                "unserialized producer/consumer access on '" + var +
                    "' in a DATAFLOW region with fifo channels; shared "
                    "array traffic must flow through a fifo.",
                ErrorCategory::StreamingDataflow, var, loc);
}

HlsError
toolFailure(const std::string &site)
{
    return make("HLS 000-1",
                "toolchain failure at '" + site +
                    "' persisted after retries; no result produced.",
                ErrorCategory::TopFunction, "", SourceLoc{});
}

} // namespace diag

} // namespace heterogen::hls
