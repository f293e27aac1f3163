#include "util/logging.hpp"

#include <cctype>
#include <cstdio>

#include "util/env.hpp"
#include "util/timer.hpp"

namespace mpas {

Logger::Logger() {
  // An unknown level keeps Info silently: warning here would re-enter
  // instance() while it is being initialized.
  if (const auto parsed = parse_level(*env::text("MPAS_LOG_LEVEL")))
    level_ = *parsed;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

std::optional<LogLevel> Logger::parse_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text)
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "debug" || lower == "0") return LogLevel::Debug;
  if (lower == "info" || lower == "1") return LogLevel::Info;
  if (lower == "warn" || lower == "warning" || lower == "2")
    return LogLevel::Warn;
  if (lower == "error" || lower == "3") return LogLevel::Error;
  if (lower == "off" || lower == "none" || lower == "4") return LogLevel::Off;
  return std::nullopt;
}

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  static const char* kNames[] = {"DEBUG", "INFO ", "WARN ", "ERROR"};
  const int idx = static_cast<int>(level);
  if (idx < 0 || idx > 3) return;
  // Timestamp and thread id use the same monotonic epoch as the trace
  // recorder, so "[INFO  12.345678 t03]" matches a trace at ts=12345678 us.
  const double now = monotonic_seconds();
  const int tid = thread_short_id();
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(stderr, "[%s %12.6f t%02d] %s\n", kNames[idx], now, tid,
               message.c_str());
}

}  // namespace mpas
