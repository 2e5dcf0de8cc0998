#include "src/util/logging.h"

#include <cstdio>

namespace airfair {

namespace {

LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_level; }

void SetLogLevel(LogLevel level) { g_level = level; }

void EmitLogLine(LogLevel level, const char* file, int line, const std::string& message) {
  // kOff is a threshold sentinel, not a message severity. Without this
  // guard, AF_LOG(kOff) would *always* emit: the macro's short-circuit
  // compares `kOff < GetLogLevel()`, which is false even when the level is
  // kOff, so the builder ran and emitted unconditionally.
  if (level >= LogLevel::kOff) {
    return;
  }
  // Strip directories for readability.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line, message.c_str());
}

}  // namespace airfair
