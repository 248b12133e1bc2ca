#include "stylecheck/stylecheck.h"

namespace heterogen::style {

StyleReport
checkStyle(const cir::TranslationUnit &tu)
{
    StyleReport report;
    report.issues = hls::checkFrontEnd(tu);
    return report;
}

} // namespace heterogen::style
