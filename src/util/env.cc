#include "src/util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace airfair {

int64_t EnvWholeNumber(const char* name, int64_t fallback, int64_t min, int64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno != 0 || value < min || value > max) {
    std::fprintf(stderr, "%s=\"%s\": expected a whole number >= %lld\n", name, env,
                 static_cast<long long>(min));
    std::exit(2);
  }
  return value;
}

double EnvNumber(const char* name, double fallback, double min) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(value) || value < min) {
    std::fprintf(stderr, "%s=\"%s\": expected a number >= %g\n", name, env, min);
    std::exit(2);
  }
  return value;
}

bool EnvFlag(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return fallback;
  }
  if (std::strcmp(env, "0") != 0 && std::strcmp(env, "1") != 0) {
    std::fprintf(stderr, "%s=\"%s\": expected 0 or 1\n", name, env);
    std::exit(2);
  }
  return env[0] == '1';
}

}  // namespace airfair
