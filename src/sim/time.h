/**
 * @file
 * Simulated-time representation for mlpsim.
 *
 * All simulator components exchange time as SimTime, an integral number of
 * picoseconds. Integral time keeps event ordering exact and reproducible;
 * helpers convert to/from floating-point seconds for model arithmetic.
 */

#ifndef MLPSIM_SIM_TIME_H
#define MLPSIM_SIM_TIME_H

#include <cstdint>
#include <string>

namespace mlps::sim {

/** Simulated time in picoseconds. */
using SimTime = std::int64_t;

/** One picosecond, the base tick. */
inline constexpr SimTime kPicosecond = 1;
/** One nanosecond in ticks. */
inline constexpr SimTime kNanosecond = 1'000;
/** One microsecond in ticks. */
inline constexpr SimTime kMicrosecond = 1'000'000;
/** One millisecond in ticks. */
inline constexpr SimTime kMillisecond = 1'000'000'000;
/** One second in ticks. */
inline constexpr SimTime kSecond = 1'000'000'000'000;
/** One minute in ticks. */
inline constexpr SimTime kMinute = 60 * kSecond;
/** One hour in ticks. */
inline constexpr SimTime kHour = 60 * kMinute;
/**
 * Longest representable duration (~2555.6 h): fromSeconds saturates
 * here instead of overflowing.
 */
inline constexpr SimTime kMaxTime = 9'200'000'000'000'000'000;

/**
 * Convert a duration in seconds to SimTime ticks, rounding to nearest.
 *
 * Negative durations are clamped to zero: models occasionally produce
 * tiny negative values from floating-point cancellation and a negative
 * delay is never meaningful. Durations past kMaxTime saturate to it.
 */
SimTime fromSeconds(double seconds);

/** Convert ticks to seconds. */
double toSeconds(SimTime t);

/** Convert ticks to minutes. */
double toMinutes(SimTime t);

/** Convert ticks to hours. */
double toHours(SimTime t);

/**
 * Render a time as a compact human-readable string, e.g. "3.42 ms",
 * "17.1 min". Chooses the largest unit that keeps the value >= 1.
 */
std::string formatTime(SimTime t);

} // namespace mlps::sim

#endif // MLPSIM_SIM_TIME_H
