#include "support/env.h"

#include <cctype>
#include <cerrno>

namespace heterogen {

std::optional<uint64_t>
parseUnsigned(const std::string &text, uint64_t lo, uint64_t hi)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v < lo || v > hi)
        return std::nullopt;
    return v;
}

} // namespace heterogen
