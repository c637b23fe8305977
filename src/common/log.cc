#include "common/log.h"

#include <cstdio>

namespace sv {
namespace {

// Every simulated process runs on the scheduler's OS thread, so the logger
// needs no locking; one fprintf per line keeps each line whole.
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level = level; }

LogLevel log_level() { return g_level; }

void log_line(LogLevel level, const std::string& tag, const std::string& msg) {
  if (level < g_level) return;
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), tag.c_str(),
               msg.c_str());
}

}  // namespace sv
