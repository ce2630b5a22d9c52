/**
 * @file
 * The Poisson arrival loop both fault-trace generators share.
 *
 * Each fault class owns a forked Rng stream and never interacts with
 * its siblings, so a trace is one plain loop per class followed by a
 * stable sort on the arrival tick. Arrivals are integer SimTime ticks;
 * a trace's order is (tick, class order, arrival order).
 */

#ifndef MLPSIM_FAULT_ARRIVALS_H
#define MLPSIM_FAULT_ARRIVALS_H

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/logger.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace mlps::fault::detail {

/** Events of a trace under construction, keyed by arrival tick. */
template <class Event>
using TimedTrace = std::vector<std::pair<sim::SimTime, Event>>;

/** Exponential deviate with the given mean. */
inline double
exponential(sim::Rng &rng, double mean)
{
    double u = std::max(rng.uniform(), 1e-12);
    return -mean * std::log(u);
}

/**
 * The horizon in ticks. A horizon past the SimTime range is fatal:
 * sim::fromSeconds saturates there, which would silently cut the trace
 * short of what the caller asked for.
 */
inline sim::SimTime
horizonTicks(const char *who, double horizon_s)
{
    if (horizon_s > sim::toSeconds(sim::kMaxTime))
        sim::fatal("%s: horizon %.1f h is past the supported %.1f h",
                   who, horizon_s / 3600.0, sim::toHours(sim::kMaxTime));
    return sim::fromSeconds(horizon_s);
}

/**
 * Append one class's arrivals in [0, horizon] to out. Gaps are
 * exponential with mean mttf_s; draw() builds each event from rng
 * before the next gap is drawn, so the class's draw order is fixed:
 * first gap, then (event, gap) per arrival.
 */
template <class Event, class Draw>
void
appendArrivals(TimedTrace<Event> &out, sim::Rng &rng, double mttf_s,
               sim::SimTime horizon, Draw draw)
{
    sim::SimTime t = sim::fromSeconds(exponential(rng, mttf_s));
    while (t <= horizon) {
        Event ev = draw();
        ev.start_s = sim::toSeconds(t);
        out.emplace_back(t, ev);
        sim::SimTime gap = sim::fromSeconds(exponential(rng, mttf_s));
        // Compared as a remainder: t + gap can overflow int64 once a
        // long gap meets a long horizon.
        if (gap > horizon - t)
            break;
        t += gap;
    }
}

/** The events in arrival order; same-tick events keep append order. */
template <class Event>
std::vector<Event>
byArrival(TimedTrace<Event> timed)
{
    std::stable_sort(timed.begin(), timed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<Event> trace;
    trace.reserve(timed.size());
    for (auto &entry : timed)
        trace.push_back(entry.second);
    return trace;
}

} // namespace mlps::fault::detail

#endif // MLPSIM_FAULT_ARRIVALS_H
