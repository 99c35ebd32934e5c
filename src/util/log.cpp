#include "util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace rmcc::util
{

LogLevel
logLevelFromString(const char *s)
{
    if (std::strcmp(s, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(s, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(s, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(s, "error") == 0)
        return LogLevel::Error;
    if (std::strcmp(s, "silent") == 0)
        return LogLevel::Silent;
    throw std::runtime_error(
        std::string("RMCC_LOG_LEVEL: unknown level '") + s +
        "' (expected debug|info|warn|error|silent)");
}

namespace
{

//! -1 = unresolved; otherwise a LogLevel value.  Relaxed atomics: worst
//! case two threads both parse the same env value.
std::atomic<int> g_level{-1};

} // namespace

LogLevel
logLevel()
{
    int lvl = g_level.load(std::memory_order_relaxed);
    if (lvl >= 0)
        return static_cast<LogLevel>(lvl);
    const auto s = envString("RMCC_LOG_LEVEL");
    LogLevel resolved = LogLevel::Info;
    if (s) {
        try {
            resolved = logLevelFromString(s->c_str());
        } catch (const std::exception &e) {
            // fatal, not throw: logLevel() runs from destructors and
            // noexcept contexts where an escaping exception would abort
            // with no message at all.
            fatal("%s", e.what());
        }
    }
    g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
    return resolved;
}

void
resetLogLevelForTest()
{
    g_level.store(-1, std::memory_order_relaxed);
}

namespace detail
{

void
logTimestamp(char *buf, std::size_t n)
{
    const auto now = std::chrono::system_clock::now();
    const std::time_t t = std::chrono::system_clock::to_time_t(now);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    std::tm tm{};
#if defined(_WIN32)
    localtime_s(&tm, &t);
#else
    localtime_r(&t, &tm);
#endif
    std::snprintf(buf, n, "%02d:%02d:%02d.%03d", tm.tm_hour, tm.tm_min,
                  tm.tm_sec, static_cast<int>(ms));
}

} // namespace detail

} // namespace rmcc::util
