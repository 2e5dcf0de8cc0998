// Strict parsing of the AIRFAIR_* environment knobs, shared by the library
// and the benches.
//
// A malformed value, or one out of range, exits 2 with a message naming the
// variable instead of quietly running a different experiment. An unset
// variable yields `fallback`; an empty one is malformed.

#ifndef AIRFAIR_SRC_UTIL_ENV_H_
#define AIRFAIR_SRC_UTIL_ENV_H_

#include <climits>
#include <cstdint>

namespace airfair {

// A whole number in [min, max].
int64_t EnvWholeNumber(const char* name, int64_t fallback, int64_t min, int64_t max = INT_MAX);

// A finite number >= min.
double EnvNumber(const char* name, double fallback, double min);

// "0" or "1".
bool EnvFlag(const char* name, bool fallback);

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_ENV_H_
