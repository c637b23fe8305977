// Minimal leveled logger; simulation code logs with the simulated timestamp.
#pragma once

#include <sstream>
#include <string>

namespace sv {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

/// Global threshold; messages below it are discarded. Default: kWarn, so
/// tests and benches stay quiet unless explicitly made verbose.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emits one formatted line to stderr.
void log_line(LogLevel level, const std::string& tag, const std::string& msg);

namespace detail {
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string tag)
      : level_(level), tag_(std::move(tag)) {}
  ~LogMessage() { log_line(level_, tag_, os_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string tag_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace sv

#define SV_LOG(level, tag)                      \
  if (::sv::log_level() > (level)) {            \
  } else                                        \
    ::sv::detail::LogMessage((level), (tag))

#define SV_TRACE(tag) SV_LOG(::sv::LogLevel::kTrace, (tag))
#define SV_DEBUG(tag) SV_LOG(::sv::LogLevel::kDebug, (tag))
#define SV_INFO(tag) SV_LOG(::sv::LogLevel::kInfo, (tag))
#define SV_WARN(tag) SV_LOG(::sv::LogLevel::kWarn, (tag))
#define SV_ERROR(tag) SV_LOG(::sv::LogLevel::kError, (tag))
