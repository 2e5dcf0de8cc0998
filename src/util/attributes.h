// Portable spelling of compiler attributes used across the tree.
//
// AF_NODISCARD marks functions whose return value *is* the point of calling
// them — a dropped EventHandle silently degrades a cancellable timer into a
// detached post (EventHandle destruction does not cancel), and a dropped
// PacketPtr returns a packet to the pool the instant it was allocated. The
// macro expands to [[nodiscard]], and the root CMakeLists.txt compiles with
// -Werror=unused-result, so a discard fails every build; `(void)` is the
// explicit discard.

#ifndef AIRFAIR_SRC_UTIL_ATTRIBUTES_H_
#define AIRFAIR_SRC_UTIL_ATTRIBUTES_H_

#define AF_NODISCARD [[nodiscard]]

#endif  // AIRFAIR_SRC_UTIL_ATTRIBUTES_H_
