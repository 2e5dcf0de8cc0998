#include "src/fault/fault_schedule.h"

#include <cstdlib>
#include <sstream>

#include "src/util/check.h"

namespace airfair {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kJoin:
      return "join";
  }
  return "?";
}

FaultPlan& FaultPlan::Leave(int station, TimeUs at) {
  events.push_back(FaultEvent{FaultKind::kLeave, station, at});
  return *this;
}

FaultPlan& FaultPlan::Join(int station, TimeUs at) {
  events.push_back(FaultEvent{FaultKind::kJoin, station, at});
  return *this;
}

namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) {
    out.push_back(item);
  }
  return out;
}

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseMs(const std::string& text, TimeUs* out) {
  int ms = 0;
  if (!ParseInt(text, &ms) || ms < 0) {
    return false;
  }
  *out = TimeUs::FromMilliseconds(ms);
  return true;
}

bool Fail(std::string* error, const std::string& token, const char* why) {
  if (error != nullptr) {
    *error = "bad fault event '" + token + "': " + why;
  }
  return false;
}

}  // namespace

bool ParseFaultSchedule(const std::string& text, FaultPlan* plan, std::string* error) {
  for (const std::string& token : Split(text, ';')) {
    if (token.empty()) {
      continue;  // Tolerate trailing/duplicate separators.
    }
    const std::vector<std::string> f = Split(token, ':');
    if (f[0] != "leave" && f[0] != "join") {
      return Fail(error, token, "unknown kind");
    }
    if (f.size() != 3) {
      return Fail(error, token, "expected <kind>:<sta>:<t_ms>");
    }
    FaultEvent e;
    e.kind = f[0] == "leave" ? FaultKind::kLeave : FaultKind::kJoin;
    if (!ParseInt(f[1], &e.station) || !ParseMs(f[2], &e.at)) {
      return Fail(error, token, "malformed station or time");
    }
    if (e.station < 0) {
      return Fail(error, token, "negative station index");
    }
    plan->events.push_back(e);
  }
  return true;
}

FaultPlan FaultPlanFromEnv() {
  FaultPlan plan;
  const char* env = std::getenv("AIRFAIR_FAULT_SCHEDULE");
  if (env == nullptr || *env == '\0') {
    return plan;
  }
  std::string error;
  AF_CHECK(ParseFaultSchedule(env, &plan, &error))
      << " AIRFAIR_FAULT_SCHEDULE: " << error;
  return plan;
}

}  // namespace airfair
