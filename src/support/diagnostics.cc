#include "support/diagnostics.h"

#include <atomic>
#include <iostream>

#include "support/env.h"

namespace heterogen {

namespace {

// Mutable process-wide state of the support layer: the level filter and
// the sink pointer. Both atomic so worker threads (difftest/fuzz
// evaluation) can log while another thread adjusts verbosity or swaps
// the sink without a data race; message bytes still interleave per
// sink semantics, which is acceptable for logs.
std::atomic<LogLevel> g_min_level{LogLevel::Warn};
std::atomic<LogSink *> g_sink{nullptr};

/** Apply HETEROGEN_LOG once, before the first explicit get/set wins. */
void
applyEnvLogLevel()
{
    static std::once_flag once;
    std::call_once(once, [] {
        if (auto level = envLogLevel())
            g_min_level = *level;
    });
}

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

std::optional<LogLevel>
parseLogLevel(const std::string &name)
{
    std::string lower = toLower(trim(name));
    if (lower == "debug")
        return LogLevel::Debug;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "warn")
        return LogLevel::Warn;
    if (lower == "error")
        return LogLevel::Error;
    return std::nullopt;
}

std::optional<LogLevel>
envLogLevel()
{
    return readEnvKnob("HETEROGEN_LOG", "debug, info, warn or error",
                       parseLogLevel);
}

std::string
formatLogLine(LogLevel level, const std::string &message)
{
    return std::string("[") + levelName(level) + "] " + message;
}

void
setLogLevel(LogLevel level)
{
    applyEnvLogLevel();
    g_min_level = level;
}

LogLevel
logLevel()
{
    applyEnvLogLevel();
    return g_min_level;
}

LogSink *
setLogSink(LogSink *sink)
{
    return g_sink.exchange(sink);
}

LogSink *
logSink()
{
    return g_sink.load();
}

void
MemoryLogSink::write(LogLevel level, const std::string &message)
{
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(formatLogLine(level, message));
}

std::vector<std::string>
MemoryLogSink::lines() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
}

void
MemoryLogSink::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lines_.clear();
}

namespace detail {

void
logMessage(LogLevel level, const std::string &msg)
{
    applyEnvLogLevel();
    if (static_cast<int>(level) <
        static_cast<int>(g_min_level.load(std::memory_order_relaxed)))
        return;
    if (LogSink *sink = g_sink.load()) {
        sink->write(level, msg);
        return;
    }
    // Default sink: stderr, byte-for-byte the historical format.
    std::cerr << formatLogLine(level, msg) << "\n";
}

} // namespace detail

void
panic(const std::string &msg)
{
    std::cerr << "[panic] " << msg << std::endl;
    std::abort();
}

std::string
SourceLoc::str() const
{
    if (!valid())
        return "<unknown>";
    return std::to_string(line) + ":" + std::to_string(column);
}

} // namespace heterogen

