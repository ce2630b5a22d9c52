#include "fault/fault_model.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "fault/arrivals.h"
#include "sim/logger.h"

namespace mlps::fault {

namespace {

constexpr FaultKind kAllKinds[kNumFaultKinds] = {
    FaultKind::GpuStall,      FaultKind::LinkFlap,
    FaultKind::HostHiccup,    FaultKind::EccRetryStorm,
    FaultKind::Preemption,    FaultKind::GpuLoss,
};

/** True for point events that end the run segment instead of slowing it. */
bool
isPointEvent(FaultKind kind)
{
    return kind == FaultKind::Preemption || kind == FaultKind::GpuLoss;
}

} // namespace

std::string
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::GpuStall: return "gpu-stall";
      case FaultKind::LinkFlap: return "link-flap";
      case FaultKind::HostHiccup: return "host-hiccup";
      case FaultKind::EccRetryStorm: return "ecc-retry-storm";
      case FaultKind::Preemption: return "preemption";
      case FaultKind::GpuLoss: return "gpu-loss";
    }
    sim::panic("toString: bad FaultKind %d", static_cast<int>(kind));
}

const FaultClassConfig &
FaultModelConfig::classFor(FaultKind kind) const
{
    return const_cast<FaultModelConfig *>(this)->classFor(kind);
}

FaultClassConfig &
FaultModelConfig::classFor(FaultKind kind)
{
    switch (kind) {
      case FaultKind::GpuStall: return gpu_stall;
      case FaultKind::LinkFlap: return link_flap;
      case FaultKind::HostHiccup: return host_hiccup;
      case FaultKind::EccRetryStorm: return ecc_retry_storm;
      case FaultKind::Preemption: return preemption;
      case FaultKind::GpuLoss: return gpu_loss;
    }
    sim::panic("classFor: bad FaultKind %d", static_cast<int>(kind));
}

FaultModelConfig
FaultModelConfig::datacenterProfile(double mttf_hours)
{
    if (mttf_hours <= 0.0)
        sim::fatal("datacenterProfile: MTTF %g hours must be positive",
                   mttf_hours);
    // Relative arrival weights: transient degradations dominate, hard
    // failures are rare (roughly the mix large-cluster studies report).
    // Weights sum to 1 so the aggregate arrival rate is 1/mttf_hours.
    FaultModelConfig cfg;
    cfg.gpu_stall = {mttf_hours / 0.35, 30.0, 0.55};
    cfg.host_hiccup = {mttf_hours / 0.25, 20.0, 0.50};
    cfg.ecc_retry_storm = {mttf_hours / 0.20, 60.0, 0.70};
    cfg.link_flap = {mttf_hours / 0.12, 45.0, 0.35};
    cfg.preemption = {mttf_hours / 0.06, 0.0, 0.0};
    cfg.gpu_loss = {mttf_hours / 0.02, 0.0, 0.0};
    return cfg;
}

bool
FaultModelConfig::allDisabled() const
{
    for (FaultKind kind : kAllKinds) {
        if (classFor(kind).mttf_hours > 0.0)
            return false;
    }
    return true;
}

double
FaultModelConfig::totalRatePerHour() const
{
    double rate = 0.0;
    for (FaultKind kind : kAllKinds) {
        const FaultClassConfig &c = classFor(kind);
        if (c.mttf_hours > 0.0)
            rate += 1.0 / c.mttf_hours;
    }
    return rate;
}

void
FaultModelConfig::validate() const
{
    for (FaultKind kind : kAllKinds) {
        const FaultClassConfig &c = classFor(kind);
        if (c.mttf_hours <= 0.0)
            continue; // disabled
        if (!isPointEvent(kind)) {
            if (c.mean_duration_s <= 0.0)
                sim::fatal("FaultModelConfig: %s needs a positive "
                           "mean duration (got %g s)",
                           toString(kind).c_str(), c.mean_duration_s);
            if (c.mean_severity <= 0.0 || c.mean_severity > 1.0)
                sim::fatal("FaultModelConfig: %s severity %g out of "
                           "(0, 1]",
                           toString(kind).c_str(), c.mean_severity);
        }
    }
}

FaultModel::FaultModel(const FaultModelConfig &config, std::uint64_t seed)
    : config_(config), seed_(seed)
{
    config_.validate();
}

std::vector<FaultEvent>
FaultModel::generate(double horizon_s, int num_gpus) const
{
    if (horizon_s < 0.0)
        sim::fatal("FaultModel: negative horizon %g s", horizon_s);
    if (num_gpus < 1)
        sim::fatal("FaultModel: need at least one GPU (got %d)",
                   num_gpus);

    if (config_.allDisabled() || horizon_s == 0.0)
        return {};
    const sim::SimTime horizon =
        detail::horizonTicks("FaultModel", horizon_s);

    // One decorrelated stream per fault class, forked in a fixed
    // order so a class's arrivals never depend on which other classes
    // are enabled.
    sim::Rng root(seed_);
    detail::TimedTrace<FaultEvent> timed;
    for (FaultKind kind : kAllKinds) {
        sim::Rng rng = root.fork();
        const FaultClassConfig &cls = config_.classFor(kind);
        if (cls.mttf_hours <= 0.0)
            continue;
        bool gpu_scoped = kind == FaultKind::GpuStall ||
                          kind == FaultKind::EccRetryStorm ||
                          kind == FaultKind::GpuLoss;
        detail::appendArrivals(
            timed, rng, cls.mttf_hours * 3600.0, horizon, [&] {
                FaultEvent ev;
                ev.kind = kind;
                if (isPointEvent(kind)) {
                    ev.severity = 0.0;
                } else {
                    ev.duration_s =
                        detail::exponential(rng, cls.mean_duration_s);
                    // Severity jitters around the class mean, clamped
                    // to a meaningful degradation range.
                    ev.severity = std::clamp(
                        cls.mean_severity * rng.lognormalNoise(0.25),
                        0.05, 0.98);
                }
                if (gpu_scoped)
                    ev.resource = static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(num_gpus)));
                return ev;
            });
    }
    return detail::byArrival(std::move(timed));
}

std::string
describeTrace(const std::vector<FaultEvent> &trace)
{
    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof(line), "%10s  %-15s %10s %9s %5s\n",
                  "t (s)", "fault", "dur (s)", "sev", "gpu");
    os << line;
    for (const FaultEvent &ev : trace) {
        std::snprintf(line, sizeof(line),
                      "%10.1f  %-15s %10.1f %9.2f %5d\n", ev.start_s,
                      toString(ev.kind).c_str(), ev.duration_s,
                      ev.severity, ev.resource);
        os << line;
    }
    return os.str();
}

} // namespace mlps::fault
