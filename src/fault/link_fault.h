/**
 * @file
 * Link/device fault domain: interconnect-level degradations.
 *
 * FaultModel (fault_model.h) covers node-scoped faults — GPU stalls,
 * preemptions, host hiccups — that scale a run's throughput. This
 * file covers the *fabric*: NVLink lanes drop, PCIe links downtrain,
 * links go hard-down, and thermally-throttled GPUs straggle the
 * ring. These faults change the topology itself, so consumers apply
 * a trace to a net::Topology (bandwidth scales, down links) and let
 * routing, P2P legality, and collective fabric selection re-answer
 * against the degraded graph.
 *
 * The generator follows the same determinism contract as FaultModel
 * and shares its per-class arrival loop (fault/arrivals.h): every
 * class draws from its own forked Rng stream, forked in a fixed order
 * regardless of which classes are enabled, so enabling or
 * re-parameterising link faults never perturbs node-fault traces
 * (they use a separate model and seed entirely) or sibling link
 * classes.
 */

#ifndef MLPSIM_FAULT_LINK_FAULT_H
#define MLPSIM_FAULT_LINK_FAULT_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/rng.h"

namespace mlps::fault {

/** Classes of interconnect faults. */
enum class LinkFaultKind {
    /** NVLink lane degradation: an NVLink edge loses bricks/lanes. */
    NvLinkLaneDegrade,
    /** PCIe downtraining: a PCIe edge renegotiates to fewer lanes. */
    PcieDowntrain,
    /** Hard link failure: an edge carries no traffic until healed. */
    LinkDown,
    /** Thermal throttle: one GPU slows and straggles collectives. */
    ThermalThrottle,
    /** NIC flap: a host's ToR uplink bounces (down until healed). */
    NicFlap,
    /** ToR failure: a rack's switch dies, downing every incident link. */
    TorDown,
    /**
     * Oversubscribed spine: pod-wide congestion scales every
     * cross-rack link's bandwidth while active.
     */
    SpineOversubscribed,
};

/**
 * Number of link-fault classes (for iteration). New classes are
 * appended — RNG streams are forked in enum order before any
 * eligibility check, so traces on topologies that predate a class
 * (e.g. single boxes, which have no NICs) are bit-identical to the
 * 4-class era.
 */
inline constexpr int kNumLinkFaultKinds = 7;

/** Human-readable link-fault-class name. */
std::string toString(LinkFaultKind kind);

/**
 * True for classes that take links hard-down (LinkDown, NicFlap,
 * TorDown) rather than scaling bandwidth.
 */
bool isDownKind(LinkFaultKind kind);

/** One link-fault occurrence within a trace. */
struct LinkFaultEvent {
    LinkFaultKind kind = LinkFaultKind::LinkDown;
    /** Onset, seconds from run start. */
    double start_s = 0.0;
    /** Degradation window, seconds; <= 0 means permanent. */
    double duration_s = 0.0;
    /**
     * Bandwidth (or, for ThermalThrottle, compute throughput)
     * retained while active: 1.0 = unaffected. 0.0 for LinkDown.
     */
    double bandwidth_scale = 1.0;
    /** Affected topology edge id, or -1 (node/GPU/fabric-scoped). */
    int edge = -1;
    /** Affected GPU ordinal (ThermalThrottle), or -1. */
    int gpu = -1;
    /**
     * Affected topology node id (TorDown — the event downs every
     * link incident to this node), or -1. SpineOversubscribed is
     * fabric-wide: edge, gpu and node are all -1.
     */
    int node = -1;

    /** True when the event is active at time t. */
    bool activeAt(double t) const
    {
        if (t < start_s)
            return false;
        return duration_s <= 0.0 || t < start_s + duration_s;
    }
};

/** Arrival/impact parameters of one link-fault class. */
struct LinkFaultClassConfig {
    /** Mean time to failure, hours; <= 0 disables the class. */
    double mttf_hours = 0.0;
    /** Mean degradation-window length, seconds. */
    double mean_duration_s = 0.0;
    /** Mean retained bandwidth/throughput while active, in (0, 1). */
    double mean_bandwidth_scale = 0.5;
};

/** Full link-fault trace-generation configuration. */
struct LinkFaultConfig {
    LinkFaultClassConfig nvlink_lane_degrade{0.0, 300.0, 0.50};
    LinkFaultClassConfig pcie_downtrain{0.0, 600.0, 0.50};
    LinkFaultClassConfig link_down{0.0, 120.0, 0.0};
    LinkFaultClassConfig thermal_throttle{0.0, 180.0, 0.70};
    // Pod-scale classes: no eligible target on a single box, so
    // enabling them leaves single-box traces untouched.
    LinkFaultClassConfig nic_flap{0.0, 30.0, 0.0};
    LinkFaultClassConfig tor_down{0.0, 900.0, 0.0};
    LinkFaultClassConfig spine_oversubscribed{0.0, 600.0, 0.40};

    /** Access by kind. */
    const LinkFaultClassConfig &classFor(LinkFaultKind kind) const;
    LinkFaultClassConfig &classFor(LinkFaultKind kind);

    /**
     * A representative datacenter fabric profile scaled around one
     * aggregate MTTF: lane drops and downtraining dominate, hard
     * link failures are rare. The pod-scale classes (NIC flaps,
     * ToR failures, spine oversubscription) are enabled with their
     * own weights on top; on single-box topologies they find no
     * eligible target and the trace matches the box-only profile.
     * @param mttf_hours aggregate mean time between *any* box-local
     *        link faults (the historical normalisation, kept so
     *        existing single-box traces reproduce bit-identically).
     */
    static LinkFaultConfig datacenterProfile(double mttf_hours);

    /** True when every class is disabled. */
    bool allDisabled() const;

    /** Sanity-check parameter ranges; fatal() when malformed. */
    void validate() const;
};

/**
 * Deterministic link-fault trace generator.
 *
 * Edge/GPU targets are drawn from the topology handed to generate(),
 * using only its static structure (edge order, link kinds), so the
 * same seed and topology always yield the bit-identical trace.
 */
class LinkFaultModel
{
  public:
    LinkFaultModel(const LinkFaultConfig &config, std::uint64_t seed);

    const LinkFaultConfig &config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Generate the link-fault trace over [0, horizon_s], sorted by
     * onset; fatal past the SimTime range (~2555 h) unless every
     * class is disabled. Classes with no eligible target in the
     * topology (e.g. NvLinkLaneDegrade on an all-PCIe box) emit
     * nothing, but their stream is still forked — isolation holds
     * regardless.
     */
    std::vector<LinkFaultEvent> generate(double horizon_s,
                                         const net::Topology &topo) const;

  private:
    LinkFaultConfig config_;
    std::uint64_t seed_;
};

/**
 * Apply every event active at time at_s to the topology's dynamic
 * link state (after resetting it): LinkDown and NicFlap take their
 * edge down, TorDown takes every link incident to its switch down,
 * SpineOversubscribed scales every cross-rack link, and the degrade
 * classes multiply edge bandwidth scales (stacking faults compound).
 * ThermalThrottle does not touch the graph.
 *
 * @return the slowest active GPU throughput scale (min over active
 *         ThermalThrottle events; 1.0 when none) — feed it to
 *         AllReduceParams::slowest_participant_scale.
 */
double applyLinkFaults(net::Topology &topo,
                       const std::vector<LinkFaultEvent> &trace,
                       double at_s);

/** Render a link-fault trace as an aligned text table. */
std::string describeLinkTrace(const std::vector<LinkFaultEvent> &trace,
                              const net::Topology &topo);

} // namespace mlps::fault

#endif // MLPSIM_FAULT_LINK_FAULT_H
