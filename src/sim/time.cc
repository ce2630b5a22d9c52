#include "sim/time.h"

#include <cmath>
#include <cstdio>

namespace mlps::sim {

SimTime
fromSeconds(double seconds)
{
    if (seconds <= 0.0)
        return 0;
    double ticks = seconds * static_cast<double>(kSecond);
    // Saturate rather than overflow for absurdly long durations
    // (> ~106 days); callers treat this as "effectively forever".
    if (ticks >= static_cast<double>(kMaxTime))
        return kMaxTime;
    return static_cast<SimTime>(std::llround(ticks));
}

double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

double
toMinutes(SimTime t)
{
    return toSeconds(t) / 60.0;
}

double
toHours(SimTime t)
{
    return toSeconds(t) / 3600.0;
}

std::string
formatTime(SimTime t)
{
    struct Unit {
        const char *suffix;
        double scale;
    };
    static const Unit units[] = {
        {"h", 3600.0}, {"min", 60.0}, {"s", 1.0},
        {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"ps", 1e-12},
    };
    double secs = toSeconds(t);
    char buf[64];
    for (const auto &u : units) {
        if (secs >= u.scale || u.scale == 1e-12) {
            std::snprintf(buf, sizeof(buf), "%.3g %s", secs / u.scale,
                          u.suffix);
            return buf;
        }
    }
    return "0 s";
}

} // namespace mlps::sim
