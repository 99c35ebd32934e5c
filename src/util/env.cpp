#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rmcc::util
{

namespace
{

[[noreturn]] void
rejectValue(const char *name, const char *value, const char *why)
{
    throw std::runtime_error(std::string(name) + ": expected " + why +
                             ", got \"" + value + "\"");
}

} // namespace

std::uint64_t
parseUnsigned(const char *what, const char *text)
{
    // Reject signs and whitespace up front: strtoull would accept "-2"
    // by wrapping it to a huge unsigned value.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        rejectValue(what, text, "a non-negative integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        rejectValue(what, text, "a non-negative integer");
    if (errno == ERANGE)
        rejectValue(what, text, "an integer within 64 bits");
    return static_cast<std::uint64_t>(v);
}

double
parseDouble(const char *what, const char *text)
{
    // Reject signs, whitespace, and the inf/nan spellings up front:
    // strtod accepts all of them, and none make sense for a setting.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) &&
        text[0] != '.')
        rejectValue(what, text, "a non-negative number");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        rejectValue(what, text, "a non-negative number");
    if (errno == ERANGE || !std::isfinite(v))
        rejectValue(what, text, "a finite number");
    return v;
}

std::string
parseChoice(const char *what, const char *text,
            const std::vector<std::string> &choices)
{
    for (const std::string &c : choices)
        if (c == text)
            return c;
    std::string expected = "one of {";
    for (std::size_t i = 0; i < choices.size(); ++i)
        expected += (i ? ", " : "") + choices[i];
    expected += "}";
    rejectValue(what, text, expected.c_str());
}

std::optional<std::uint64_t>
envUnsigned(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return std::nullopt;
    return parseUnsigned(name, value);
}

std::uint64_t
envUnsignedOr(const char *name, std::uint64_t fallback)
{
    return envUnsigned(name).value_or(fallback);
}

std::optional<std::uint64_t>
envPositive(const char *name)
{
    const std::optional<std::uint64_t> v = envUnsigned(name);
    if (v && *v == 0)
        rejectValue(name, std::getenv(name), "a positive integer");
    return v;
}

std::string
envChoice(const char *name, const std::vector<std::string> &choices,
          const std::string &fallback)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return fallback;
    return parseChoice(name, value, choices);
}

std::optional<std::string>
envString(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || value[0] == '\0')
        return std::nullopt;
    return std::string(value);
}

std::string
envStringOr(const char *name, const std::string &fallback)
{
    return envString(name).value_or(fallback);
}

} // namespace rmcc::util
