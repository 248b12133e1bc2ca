/**
 * @file
 * Logging and error-reporting primitives in the gem5 style.
 *
 * inform() / warn() report status without stopping; fatal() is for user
 * errors (bad input program, bad configuration) and throws FatalError;
 * panic() is for internal invariant violations and aborts.
 */

#ifndef HETEROGEN_SUPPORT_DIAGNOSTICS_H
#define HETEROGEN_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace heterogen {

/** Severity of a log message. */
enum class LogLevel { Debug, Info, Warn, Error };

/** Parse "debug" / "info" / "warn" / "error" (case-insensitive). */
std::optional<LogLevel> parseLogLevel(const std::string &name);

/**
 * The HETEROGEN_LOG level, read now: nullopt when unset; an unknown
 * level is a FatalError. The logger applies it once, at first use.
 */
std::optional<LogLevel> envLogLevel();

/**
 * Destination of already-filtered log records. The process-wide sink
 * is pluggable (setLogSink) so a RunContext can capture or redirect a
 * run's diagnostics; the default sink writes to stderr exactly as the
 * pre-sink implementation did.
 */
class LogSink
{
  public:
    virtual ~LogSink() = default;
    /** One record that passed the level filter. */
    virtual void write(LogLevel level, const std::string &message) = 0;
};

/** "[level] message" — the canonical log line (no trailing newline). */
std::string formatLogLine(LogLevel level, const std::string &message);

/**
 * Install the process-wide sink; nullptr restores the stderr default.
 * Returns the previously installed sink (nullptr if it was the
 * default). The caller keeps ownership of `sink` and must keep it
 * alive until it is detached.
 */
LogSink *setLogSink(LogSink *sink);

/** Currently installed sink (nullptr when the stderr default is active). */
LogSink *logSink();

/** Sink collecting formatted lines in memory (tests, trace capture). */
class MemoryLogSink : public LogSink
{
  public:
    void write(LogLevel level, const std::string &message) override;

    std::vector<std::string> lines() const;
    void clear();

  private:
    mutable std::mutex mu_;
    std::vector<std::string> lines_;
};

/**
 * Error thrown by fatal(): the library cannot continue because of a
 * condition that is the caller's fault (malformed source program, invalid
 * option, ...). Callers of the public API may catch and report it.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

/** Emit a formatted log line to stderr if level is enabled. */
void logMessage(LogLevel level, const std::string &msg);

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Set the minimum level that logMessage actually prints.
 *
 * The initial level is Warn, overridable once at startup via the
 * HETEROGEN_LOG environment variable (envLogLevel); explicit calls to
 * setLogLevel always win over the environment.
 */
void setLogLevel(LogLevel level);

/** Get the current minimum log level. */
LogLevel logLevel();

/** Informative status message; never stops execution. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::logMessage(LogLevel::Info,
                       detail::concat(std::forward<Args>(args)...));
}

/** Something might be wrong but execution can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logMessage(LogLevel::Warn,
                       detail::concat(std::forward<Args>(args)...));
}

/** User-caused unrecoverable condition: throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Internal invariant violation: logs and aborts the process. */
[[noreturn]] void panic(const std::string &msg);

/** Source position inside a subject program (1-based line/column). */
struct SourceLoc
{
    int line = 0;
    int column = 0;

    bool valid() const { return line > 0; }
    std::string str() const;

    bool
    operator==(const SourceLoc &other) const
    {
        return line == other.line && column == other.column;
    }
};

} // namespace heterogen

#endif // HETEROGEN_SUPPORT_DIAGNOSTICS_H
