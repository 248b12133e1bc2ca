/**
 * @file
 * Synthesizability checking — the front half of the simulated HLS
 * toolchain.
 *
 * Reproduces the four incompatibility sources §2 describes (dynamic data
 * structures, unsupported types/pointers, pragma legality, struct/union
 * restrictions) plus top-function configuration checks, emitting
 * Vivado-style diagnostics from hls/errors.h.
 *
 * One walk, two phases. The front-end phase holds the coding-style
 * rules visible without types, configuration or a dataflow graph
 * (recursion, dynamic allocation, pointers, long double, unsized
 * arrays, struct/union restrictions, pragma placement); the deep phase
 * adds everything else. checkFrontEnd() runs the front-end phase alone
 * and is the style gate (stylecheck/stylecheck.h); checkSynthesizability
 * runs both. Each front-end rule is written once and records both its
 * style text and its HlsError at one site, so a design the style gate
 * rejects is always rejected by synthesis.
 */

#ifndef HETEROGEN_HLS_SYNTH_CHECK_H
#define HETEROGEN_HLS_SYNTH_CHECK_H

#include <optional>
#include <string>
#include <vector>

#include "cir/ast.h"
#include "hls/config.h"
#include "hls/errors.h"

namespace heterogen {
class RunContext;
}

namespace heterogen::hls {

/** One front-end rule violation, in the style gate's words. */
struct FrontEndIssue
{
    /** e.g. "long double variable 'v'"; the search notes and localizes it. */
    std::string message;
    SourceLoc loc;
};

/**
 * Run only the front-end phase: no HlsConfig, no expression typing, no
 * dataflow analysis. Issues come in walk order, one per rule hit (no
 * deduplication). Empty exactly when no front-end rule fires, and any
 * issue here implies checkSynthesizability reports an error too.
 */
std::vector<FrontEndIssue> checkFrontEnd(const cir::TranslationUnit &tu);

/**
 * Run all synthesizability checks. An empty result means the design passes
 * the synthesis front end.
 */
std::vector<HlsError> checkSynthesizability(const cir::TranslationUnit &tu,
                                            const HlsConfig &config);

/**
 * Spine-aware variant: additionally bumps hls.synth_checks and one
 * hls.errors.<category-slug> counter per diagnostic on the current
 * trace span (support/run_context.h). Check outcome is identical.
 *
 * Also the "hls.synth_check" fault site: with a FaultPlan armed on the
 * context, a fault that persists through every retry yields a single
 * diag::toolFailure diagnostic instead of running the checker (and no
 * hls.synth_checks bump).
 */
std::vector<HlsError> checkSynthesizability(RunContext &ctx,
                                            const cir::TranslationUnit &tu,
                                            const HlsConfig &config);

/**
 * Compile-time trip count of a for loop of the canonical shape
 * (i = c0; i <|<= c1; i++ / i += c2); nullopt when not statically known.
 */
std::optional<long> staticTripCount(const cir::ForStmt &loop);

/** Functions that participate in any call-graph cycle. */
std::vector<std::string> recursiveFunctions(const cir::TranslationUnit &tu);

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_SYNTH_CHECK_H
