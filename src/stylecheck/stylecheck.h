/**
 * @file
 * Lightweight HLS coding-style checker ("LLVM front-end" stand-in).
 *
 * Runs in simulated seconds instead of minutes and catches the subset of
 * HLS problems visible without types, configuration or a dataflow
 * graph: recursion, dynamic allocation, pointers, long double, unsized
 * arrays, struct/union restrictions and pragma placement. HeteroGen
 * consults it before every full HLS compile; a candidate that fails
 * style checking is rejected without paying the toolchain cost (§5.3,
 * "HLS Coding Style Validity").
 *
 * The rules live in one table: the front-end phase of the synthesis
 * checker (hls/synth_check.h), which checkStyle runs alone. Soundness
 * contract: every style issue is also a synthesis error, because
 * checkSynthesizability runs the same rules at the same sites, so the
 * gate never rejects a design that full synthesis would accept.
 *
 * Deliberately NOT caught here (only full synthesis finds these):
 * dataflow argument checking, unroll/dataflow interactions, array
 * partition divisibility, top-function configuration, resource fit.
 */

#ifndef HETEROGEN_STYLECHECK_STYLECHECK_H
#define HETEROGEN_STYLECHECK_STYLECHECK_H

#include <vector>

#include "cir/ast.h"
#include "hls/synth_check.h"

namespace heterogen::style {

/**
 * Version stamp of the style gate's judging behaviour. Bump whenever a
 * rule change could alter a StyleReport for an unchanged design:
 * persisted verdicts (repair/store.h) carry this stamp, and a mismatch
 * invalidates every stale entry. The rules live in hls/synth_check.cc,
 * so a front-end rule change there usually bumps hls::kSimulatorVersion
 * as well.
 */
inline constexpr const char *kStyleCheckerVersion = "sc-1";

/** One style violation: a front-end rule's message and location. */
using StyleIssue = hls::FrontEndIssue;

/** Result of one style check. */
struct StyleReport
{
    std::vector<StyleIssue> issues;
    /** Simulated wall-clock cost in minutes (a few seconds). */
    double check_minutes = 0.05;

    bool clean() const { return issues.empty(); }
};

/** Check a design's HLS coding style. */
StyleReport checkStyle(const cir::TranslationUnit &tu);

} // namespace heterogen::style

#endif // HETEROGEN_STYLECHECK_STYLECHECK_H
