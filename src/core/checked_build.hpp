// The instrumentation profile — the only header that reads a build
// define.  It exports three 0/1 macros:
//
//   CORDON_TELEMETRY_BUILD  telemetry counters/spans compiled in
//                           (telemetry.hpp)
//   CORDON_CHECKED_BUILD    invariant checks (audit.hpp) and seeded
//                           fault hooks (fault.hpp) compiled in
//   CORDON_TSAN_BUILD       ThreadSanitizer is compiled in
//
// CMake's CORDON_INSTRUMENT profile arrives as CORDON_INSTRUMENT_LEVEL:
// 0 = off (nothing), 1 = telemetry only, 2 = checked (everything).  The
// AUTO profile resolves to 2 in Debug and sanitizer builds, 1 otherwise.
// Without that define (a build outside CMake) the same rule is detected
// here: telemetry on, checked in Debug builds (no NDEBUG) and whenever
// ASan, TSan or (clang only; gcc 12 has no macro for it) UBSan is
// compiled in.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define CORDON_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CORDON_TSAN_BUILD 1
#endif
#endif
#if !defined(CORDON_TSAN_BUILD)
#define CORDON_TSAN_BUILD 0
#endif

#if defined(CORDON_INSTRUMENT_LEVEL)
#define CORDON_TELEMETRY_BUILD (CORDON_INSTRUMENT_LEVEL >= 1)
#define CORDON_CHECKED_BUILD (CORDON_INSTRUMENT_LEVEL >= 2)
#else
#define CORDON_TELEMETRY_BUILD 1
#if !defined(NDEBUG) || CORDON_TSAN_BUILD || defined(__SANITIZE_ADDRESS__)
#define CORDON_CHECKED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define CORDON_CHECKED_BUILD 1
#else
#define CORDON_CHECKED_BUILD 0
#endif
#else
#define CORDON_CHECKED_BUILD 0
#endif
#endif
