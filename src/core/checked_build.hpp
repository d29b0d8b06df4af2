// CORDON_CHECKED_BUILD — 1 in Debug builds (no NDEBUG) and whenever a
// sanitizer (ASan, TSan, UBSan) is compiled in, 0 otherwise.
//
// The compiled-in checking layers (audit.hpp, fault.hpp) default to this
// value and layer only their own -D…_DISABLED / -D…_FORCE overrides on
// top, so "which builds are checked" is decided in one place.
#pragma once

#if !defined(NDEBUG)
#define CORDON_CHECKED_BUILD 1
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CORDON_CHECKED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define CORDON_CHECKED_BUILD 1
#else
#define CORDON_CHECKED_BUILD 0
#endif
#else
#define CORDON_CHECKED_BUILD 0
#endif
