/**
 * @file
 * Stochastic failure-trace generation for fault-tolerant training
 * studies.
 *
 * Real MLPerf-class runs are punctuated by transient GPU stalls,
 * link flaps, host-pipeline hiccups, ECC retry storms, and outright
 * preemptions — none of which the steady-state Trainer model sees.
 * FaultModel turns per-class MTTF parameters into a deterministic,
 * seed-reproducible event trace: each fault class owns a forked Rng
 * stream and runs its own arrival loop (exponential gaps with the
 * configured MTTF, in integer SimTime ticks), durations/severities
 * are drawn from the class's distribution, and the classes' arrivals
 * are merged by a stable sort on the arrival tick (fault/arrivals.h).
 * The same seed always yields the bit-identical trace, so whole-suite
 * fault studies stay reproducible.
 */

#ifndef MLPSIM_FAULT_FAULT_MODEL_H
#define MLPSIM_FAULT_FAULT_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace mlps::fault {

/** Classes of faults the trace generator can emit. */
enum class FaultKind {
    /** Transient straggler epoch: one GPU computes slower for a while. */
    GpuStall,
    /** Link flap: an interconnect link runs at degraded bandwidth. */
    LinkFlap,
    /** Host-pipeline hiccup: preprocessing throughput drops. */
    HostHiccup,
    /** ECC retry storm: HBM bandwidth degraded on one GPU. */
    EccRetryStorm,
    /** Job preemption/kill: all work since the last checkpoint is lost. */
    Preemption,
    /** Permanent GPU loss: the device drops out for the rest of the run. */
    GpuLoss,
};

/** Number of fault classes (for iteration). */
inline constexpr int kNumFaultKinds = 6;

/** Human-readable fault-class name. */
std::string toString(FaultKind kind);

/** One fault occurrence within a trace. */
struct FaultEvent {
    FaultKind kind = FaultKind::GpuStall;
    /** Onset, seconds from run start. */
    double start_s = 0.0;
    /** Degradation window length, seconds (0 for point events). */
    double duration_s = 0.0;
    /**
     * Throughput retention while the fault is active: 1.0 = unaffected,
     * 0.5 = half speed, 0.0 = fully stopped. Point events (Preemption,
     * GpuLoss) carry 0.0.
     */
    double severity = 1.0;
    /** Affected GPU index, or -1 when the fault is machine-wide. */
    int resource = -1;
};

/** Arrival/impact parameters of one fault class. */
struct FaultClassConfig {
    /** Mean time to failure, hours; <= 0 disables the class. */
    double mttf_hours = 0.0;
    /** Mean degradation-window length, seconds (point events: 0). */
    double mean_duration_s = 0.0;
    /** Mean throughput retention while active, in (0, 1]. */
    double mean_severity = 1.0;
};

/** Full trace-generation configuration. */
struct FaultModelConfig {
    FaultClassConfig gpu_stall{0.0, 30.0, 0.55};
    FaultClassConfig link_flap{0.0, 45.0, 0.35};
    FaultClassConfig host_hiccup{0.0, 20.0, 0.50};
    FaultClassConfig ecc_retry_storm{0.0, 60.0, 0.70};
    FaultClassConfig preemption{0.0, 0.0, 0.0};
    FaultClassConfig gpu_loss{0.0, 0.0, 0.0};

    /** Access by kind. */
    const FaultClassConfig &classFor(FaultKind kind) const;
    FaultClassConfig &classFor(FaultKind kind);

    /**
     * A representative datacenter profile scaled around one aggregate
     * MTTF: transient classes fire more often than hard failures, in
     * roughly the ratios reported by large-cluster failure studies.
     * @param mttf_hours aggregate mean time between *any* faults.
     */
    static FaultModelConfig datacenterProfile(double mttf_hours);

    /** True when every class is disabled. */
    bool allDisabled() const;

    /** Aggregate fault arrival rate, events per hour. */
    double totalRatePerHour() const;

    /** Sanity-check parameter ranges; fatal() when malformed. */
    void validate() const;
};

/**
 * Deterministic failure-trace generator.
 *
 * Each fault class draws from its own forked Rng stream, so enabling
 * or re-parameterising one class never perturbs another class's
 * arrivals — traces stay comparable across configurations.
 */
class FaultModel
{
  public:
    FaultModel(const FaultModelConfig &config, std::uint64_t seed);

    const FaultModelConfig &config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Generate the fault trace over [0, horizon_s], sorted by onset.
     *
     * @param horizon_s trace length, seconds; fatal past the SimTime
     *        range (sim::kMaxTime, ~2555 h) unless every class is
     *        disabled.
     * @param num_gpus devices to spread GPU-scoped faults over.
     */
    std::vector<FaultEvent> generate(double horizon_s,
                                     int num_gpus) const;

  private:
    FaultModelConfig config_;
    std::uint64_t seed_;
};

/** Render a trace as an aligned text table (debugging/CLI). */
std::string describeTrace(const std::vector<FaultEvent> &trace);

} // namespace mlps::fault

#endif // MLPSIM_FAULT_FAULT_MODEL_H
