#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace simjoin {
namespace internal {
namespace {

std::atomic<int> g_test_override{-1};

/// ISO-8601 UTC wall time with millisecond precision, e.g.
/// "2026-08-06T12:34:56.789Z".  Uses gmtime_r so concurrent loggers never
/// share libc's static tm buffer.
std::string WallTimeIso8601() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for seven full-width ints, so the format can never truncate.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

/// Short per-thread tag ("t00".."t99", wrapping) so interleaved lines from a
/// pool run can be attributed without printing full thread ids.
uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed) % 100;
  return tag;
}

LogLevel LevelFromEnv() {
  const char* env = std::getenv("SIMJOIN_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  const int v = std::atoi(env);
  if (v < 0) return LogLevel::kDebug;
  if (v > 4) return LogLevel::kFatal;
  return static_cast<LogLevel>(v);
}

}  // namespace

LogLevel MinLogLevel() {
  const int override_level = g_test_override.load(std::memory_order_relaxed);
  if (override_level >= 0) return static_cast<LogLevel>(override_level);
  static const LogLevel cached = LevelFromEnv();
  return cached;
}

void SetMinLogLevelForTesting(int level) {
  g_test_override.store(level, std::memory_order_relaxed);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  char tag[8];
  std::snprintf(tag, sizeof(tag), "t%02u", ThreadTag());
  stream_ << "[" << WallTimeIso8601() << " " << tag << " "
          << LogLevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= MinLogLevel() || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "UNKNOWN";
}

}  // namespace simjoin
