/**
 * @file
 * Leveled logging in the spirit of gem5's logging.hh.
 *
 * Severity model:
 *   logDebug(): chatty diagnostics, off by default.
 *   logInfo():  progress/one-line status (suite progress, bench phases).
 *   warn():     something works but not as well as it should.
 *   logError(): an operation failed but the process continues (a cell
 *               failed, a file could not be written).
 *   fatal():    user-correctable problem (bad configuration) -> exit(1).
 *   panic():    internal invariant violation (a bug) -> abort().
 *
 * RMCC_LOG_LEVEL selects the minimum severity that prints
 * (debug|info|warn|error|silent, default info) and is strict-parsed:
 * garbage is rejected loudly rather than silently defaulting.  fatal()
 * and panic() always print — a process should never die silently.
 *
 * Every line is prefixed with a wall-clock timestamp and severity tag,
 * e.g. "[14:03:22.187] warn: ...", and written to stderr in one fprintf
 * per line so concurrent suite workers do not interleave mid-line.
 */
#ifndef RMCC_UTIL_LOG_HPP
#define RMCC_UTIL_LOG_HPP

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rmcc::util
{

/** Message severities, ordered; Silent suppresses everything non-fatal. */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/**
 * Parse a log-level spelling ("debug", "info", "warn", "error",
 * "silent").  @throws std::runtime_error on anything else.
 */
LogLevel logLevelFromString(const char *s);

/**
 * The active minimum severity: RMCC_LOG_LEVEL on first call (cached),
 * default Info.  A malformed value is a user error -> fatal(), not a
 * throw, so logging stays usable from destructors.
 */
LogLevel logLevel();

/** Forget the cached level so the next logLevel() re-reads the env. */
void resetLogLevelForTest();

/** True when messages of severity lvl currently print. */
inline bool
logEnabled(LogLevel lvl)
{
    return static_cast<int>(lvl) >= static_cast<int>(logLevel());
}

namespace detail
{

/** Fill buf with the current wall-clock time as HH:MM:SS.mmm. */
void logTimestamp(char *buf, std::size_t n);

/**
 * Print one "[HH:MM:SS.mmm] tag: message" line to stderr in a single
 * fprintf.  `tag` is the severity as printed ("warn", "fatal", ...).
 */
template <typename... Args>
void
logLine(const char *tag, const char *fmt, Args &&...args)
{
    char line[1024];
    int off = 0;
    {
        char ts[32];
        logTimestamp(ts, sizeof ts);
        off = std::snprintf(line, sizeof line, "[%s] %s: ", ts, tag);
    }
    if (off < 0)
        off = 0;
    const auto room = sizeof line - static_cast<std::size_t>(off);
    if constexpr (sizeof...(Args) == 0)
        std::snprintf(line + off, room, "%s", fmt);
    else
        std::snprintf(line + off, room, fmt, std::forward<Args>(args)...);
    std::fprintf(stderr, "%s\n", line);
}

} // namespace detail

/** Chatty diagnostic; printed only at RMCC_LOG_LEVEL=debug. */
template <typename... Args>
void
logDebug(const char *fmt, Args &&...args)
{
    if (logEnabled(LogLevel::Debug))
        detail::logLine("debug", fmt, std::forward<Args>(args)...);
}

/** Progress/status line (default-visible). */
template <typename... Args>
void
logInfo(const char *fmt, Args &&...args)
{
    if (logEnabled(LogLevel::Info))
        detail::logLine("info", fmt, std::forward<Args>(args)...);
}

/** Non-fatal warning. */
template <typename... Args>
void
warn(const char *fmt, Args &&...args)
{
    if (logEnabled(LogLevel::Warn))
        detail::logLine("warn", fmt, std::forward<Args>(args)...);
}

/** A failed operation the process survives. */
template <typename... Args>
void
logError(const char *fmt, Args &&...args)
{
    if (logEnabled(LogLevel::Error))
        detail::logLine("error", fmt, std::forward<Args>(args)...);
}

/** Terminate with exit(1) after printing a user-error message. */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    detail::logLine("fatal", fmt, std::forward<Args>(args)...);
    std::exit(1);
}

/** Abort after printing an internal-bug message. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    detail::logLine("panic", fmt, std::forward<Args>(args)...);
    std::abort();
}

} // namespace rmcc::util

#endif // RMCC_UTIL_LOG_HPP
