/**
 * @file
 * The one reader of HETEROGEN_* environment knobs.
 *
 * Every knob shares one error policy: an unset or blank variable means
 * "use the built-in default", and a value the knob cannot use is a
 * FatalError naming the variable, the value and the legal values. No
 * knob silently ignores a bad value.
 */

#ifndef HETEROGEN_SUPPORT_ENV_H
#define HETEROGEN_SUPPORT_ENV_H

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace heterogen {

/**
 * Read the environment knob `name` through `parse`, which maps the
 * trimmed value to a std::optional. Returns nullopt when the variable
 * is unset or blank. A value `parse` rejects — by returning nullopt or
 * throwing FatalError, whose message is kept as the reason — is a
 * FatalError naming `name`, the value and `legal`.
 */
template <typename Parse>
auto
readEnvKnob(const char *name, const char *legal, Parse parse)
    -> decltype(parse(std::string()))
{
    const char *raw = std::getenv(name);
    std::string value = raw ? trim(raw) : "";
    if (value.empty())
        return std::nullopt;
    std::string reason;
    try {
        if (auto parsed = parse(value))
            return parsed;
    } catch (const FatalError &e) {
        reason = std::string(" (") + e.what() + ")";
    }
    fatal(name, ": invalid value '", value, "'", reason, "; expected ",
          legal);
}

/** Parse a whole decimal number in [lo, hi]; nullopt otherwise. */
std::optional<uint64_t>
parseUnsigned(const std::string &text, uint64_t lo = 0,
              uint64_t hi = std::numeric_limits<uint64_t>::max());

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_ENV_H
