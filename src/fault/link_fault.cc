#include "fault/link_fault.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "fault/arrivals.h"
#include "sim/logger.h"

namespace mlps::fault {

namespace {

constexpr LinkFaultKind kAllLinkKinds[kNumLinkFaultKinds] = {
    LinkFaultKind::NvLinkLaneDegrade,
    LinkFaultKind::PcieDowntrain,
    LinkFaultKind::LinkDown,
    LinkFaultKind::ThermalThrottle,
    LinkFaultKind::NicFlap,
    LinkFaultKind::TorDown,
    LinkFaultKind::SpineOversubscribed,
};

/** What a class strikes: one edge, one GPU, one node, or the fabric. */
enum class Scope { Edge, Gpu, Node, Fabric };

Scope
scopeOf(LinkFaultKind kind)
{
    switch (kind) {
      case LinkFaultKind::ThermalThrottle: return Scope::Gpu;
      case LinkFaultKind::TorDown: return Scope::Node;
      case LinkFaultKind::SpineOversubscribed: return Scope::Fabric;
      default: return Scope::Edge;
    }
}

/** Edge ids a class can strike, in deterministic (id) order. */
std::vector<int>
eligibleEdges(LinkFaultKind kind, const net::Topology &topo)
{
    std::vector<int> out;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        net::LinkKind lk = topo.link(e).kind;
        bool ok = false;
        switch (kind) {
          case LinkFaultKind::NvLinkLaneDegrade:
            ok = lk == net::LinkKind::NvLink;
            break;
          case LinkFaultKind::PcieDowntrain:
            ok = lk == net::LinkKind::Pcie3;
            break;
          case LinkFaultKind::LinkDown:
            // Hard failures hit the GPU fabric; UPI is part of the
            // CPU package and modeled as always up. Datacenter-tier
            // Ethernet has its own flap/switch classes below.
            ok = lk != net::LinkKind::Upi && lk != net::LinkKind::Eth;
            break;
          case LinkFaultKind::NicFlap:
            // A flap bounces the host's ToR uplink, not the spine
            // layer: Ethernet at the intra-rack tier.
            ok = lk == net::LinkKind::Eth &&
                 topo.link(e).tier == net::FabricTier::IntraRack;
            break;
          case LinkFaultKind::SpineOversubscribed:
            // Eligibility only — the event hits every cross-rack
            // link at once, no single edge is drawn.
            ok = topo.link(e).tier == net::FabricTier::CrossRack;
            break;
          case LinkFaultKind::ThermalThrottle:
          case LinkFaultKind::TorDown:
            break;
        }
        if (ok)
            out.push_back(e);
    }
    return out;
}

/** Node ids a node-scoped class can strike, in id order. */
std::vector<int>
eligibleNodes(LinkFaultKind kind, const net::Topology &topo)
{
    std::vector<int> out;
    if (kind != LinkFaultKind::TorDown)
        return out;
    for (net::NodeId n : topo.nodesOfKind(net::NodeKind::TorSwitch))
        out.push_back(n);
    return out;
}

} // namespace

std::string
toString(LinkFaultKind kind)
{
    switch (kind) {
      case LinkFaultKind::NvLinkLaneDegrade: return "nvlink-lane-degrade";
      case LinkFaultKind::PcieDowntrain: return "pcie-downtrain";
      case LinkFaultKind::LinkDown: return "link-down";
      case LinkFaultKind::ThermalThrottle: return "thermal-throttle";
      case LinkFaultKind::NicFlap: return "nic-flap";
      case LinkFaultKind::TorDown: return "tor-down";
      case LinkFaultKind::SpineOversubscribed:
        return "spine-oversubscribed";
    }
    sim::panic("toString: bad LinkFaultKind %d", static_cast<int>(kind));
}

bool
isDownKind(LinkFaultKind kind)
{
    return kind == LinkFaultKind::LinkDown ||
           kind == LinkFaultKind::NicFlap ||
           kind == LinkFaultKind::TorDown;
}

const LinkFaultClassConfig &
LinkFaultConfig::classFor(LinkFaultKind kind) const
{
    return const_cast<LinkFaultConfig *>(this)->classFor(kind);
}

LinkFaultClassConfig &
LinkFaultConfig::classFor(LinkFaultKind kind)
{
    switch (kind) {
      case LinkFaultKind::NvLinkLaneDegrade: return nvlink_lane_degrade;
      case LinkFaultKind::PcieDowntrain: return pcie_downtrain;
      case LinkFaultKind::LinkDown: return link_down;
      case LinkFaultKind::ThermalThrottle: return thermal_throttle;
      case LinkFaultKind::NicFlap: return nic_flap;
      case LinkFaultKind::TorDown: return tor_down;
      case LinkFaultKind::SpineOversubscribed:
        return spine_oversubscribed;
    }
    sim::panic("classFor: bad LinkFaultKind %d", static_cast<int>(kind));
}

LinkFaultConfig
LinkFaultConfig::datacenterProfile(double mttf_hours)
{
    if (mttf_hours <= 0.0)
        sim::fatal("LinkFaultConfig: MTTF %g hours must be positive",
                   mttf_hours);
    // Relative arrival weights (sum to 1 so the aggregate rate is
    // 1/mttf_hours): lane drops and downtraining dominate, hard
    // failures are rare, throttling sits in between.
    LinkFaultConfig cfg;
    cfg.nvlink_lane_degrade = {mttf_hours / 0.40, 300.0, 0.50};
    cfg.pcie_downtrain = {mttf_hours / 0.25, 600.0, 0.50};
    cfg.thermal_throttle = {mttf_hours / 0.28, 180.0, 0.70};
    cfg.link_down = {mttf_hours / 0.07, 120.0, 0.0};
    // Pod-scale classes ride on top of the box-local normalisation
    // above (those four weights are frozen so single-box traces
    // reproduce): NIC flaps are frequent and brief, ToR failures
    // rare and long, spine congestion episodic.
    cfg.nic_flap = {mttf_hours / 0.30, 30.0, 0.0};
    cfg.tor_down = {mttf_hours / 0.05, 900.0, 0.0};
    cfg.spine_oversubscribed = {mttf_hours / 0.20, 600.0, 0.40};
    return cfg;
}

bool
LinkFaultConfig::allDisabled() const
{
    for (LinkFaultKind kind : kAllLinkKinds) {
        if (classFor(kind).mttf_hours > 0.0)
            return false;
    }
    return true;
}

void
LinkFaultConfig::validate() const
{
    for (LinkFaultKind kind : kAllLinkKinds) {
        const LinkFaultClassConfig &c = classFor(kind);
        if (c.mttf_hours <= 0.0)
            continue; // disabled
        if (c.mean_duration_s <= 0.0)
            sim::fatal("LinkFaultConfig: %s needs a positive mean "
                       "duration (got %g s)",
                       toString(kind).c_str(), c.mean_duration_s);
        if (isDownKind(kind))
            continue; // scale unused (link carries nothing)
        if (c.mean_bandwidth_scale <= 0.0 ||
            c.mean_bandwidth_scale >= 1.0)
            sim::fatal("LinkFaultConfig: %s bandwidth scale %g out of "
                       "(0, 1)",
                       toString(kind).c_str(), c.mean_bandwidth_scale);
    }
}

LinkFaultModel::LinkFaultModel(const LinkFaultConfig &config,
                               std::uint64_t seed)
    : config_(config), seed_(seed)
{
    config_.validate();
}

std::vector<LinkFaultEvent>
LinkFaultModel::generate(double horizon_s, const net::Topology &topo) const
{
    if (horizon_s < 0.0)
        sim::fatal("LinkFaultModel: negative horizon %g s", horizon_s);
    if (topo.nodeCount() == 0)
        sim::fatal("LinkFaultModel: empty topology");

    if (config_.allDisabled() || horizon_s == 0.0)
        return {};
    const sim::SimTime horizon =
        detail::horizonTicks("LinkFaultModel", horizon_s);
    const int num_gpus = static_cast<int>(topo.gpus().size());

    // One decorrelated stream per class, forked in a fixed order
    // (including disabled classes and classes with no eligible
    // target) so a class's arrivals never depend on its siblings.
    sim::Rng root(seed_);
    detail::TimedTrace<LinkFaultEvent> timed;
    for (LinkFaultKind kind : kAllLinkKinds) {
        sim::Rng rng = root.fork();
        const LinkFaultClassConfig &cls = config_.classFor(kind);
        if (cls.mttf_hours <= 0.0)
            continue;
        Scope scope = scopeOf(kind);
        // For Edge scope these are drawable targets; for Fabric scope
        // they only decide eligibility (the event hits all of them).
        std::vector<int> pool = scope == Scope::Node
                                    ? eligibleNodes(kind, topo)
                                    : eligibleEdges(kind, topo);
        if (scope == Scope::Gpu ? num_gpus == 0 : pool.empty())
            continue; // nothing to strike on this topology
        auto pick = [&](std::uint64_t n) { return rng.below(n); };
        detail::appendArrivals(
            timed, rng, cls.mttf_hours * 3600.0, horizon, [&] {
                LinkFaultEvent ev;
                ev.kind = kind;
                ev.duration_s =
                    detail::exponential(rng, cls.mean_duration_s);
                if (isDownKind(kind)) {
                    ev.bandwidth_scale = 0.0;
                } else {
                    ev.bandwidth_scale = std::clamp(
                        cls.mean_bandwidth_scale *
                            rng.lognormalNoise(0.25),
                        0.05, 0.95);
                }
                switch (scope) {
                  case Scope::Gpu:
                    ev.gpu = static_cast<int>(pick(num_gpus));
                    break;
                  case Scope::Edge:
                    ev.edge = pool[pick(pool.size())];
                    break;
                  case Scope::Node:
                    ev.node = pool[pick(pool.size())];
                    break;
                  case Scope::Fabric:
                    break; // hits every cross-rack link at once
                }
                return ev;
            });
    }
    return detail::byArrival(std::move(timed));
}

double
applyLinkFaults(net::Topology &topo,
                const std::vector<LinkFaultEvent> &trace, double at_s)
{
    topo.resetLinkState();
    double slowest = 1.0;
    for (const LinkFaultEvent &ev : trace) {
        if (!ev.activeAt(at_s))
            continue;
        switch (ev.kind) {
          case LinkFaultKind::LinkDown:
          case LinkFaultKind::NicFlap:
            topo.setLinkDown(ev.edge, true);
            break;
          case LinkFaultKind::TorDown:
            // The switch dies: every link touching it goes with it.
            for (int e : topo.incidentEdges(ev.node))
                topo.setLinkDown(e, true);
            break;
          case LinkFaultKind::NvLinkLaneDegrade:
          case LinkFaultKind::PcieDowntrain:
            // Stacking degradations on one edge compound.
            topo.setLinkBandwidthScale(
                ev.edge, topo.linkBandwidthScale(ev.edge) *
                             ev.bandwidth_scale);
            break;
          case LinkFaultKind::SpineOversubscribed:
            // Pod-wide congestion; overlapping episodes compound.
            for (int e = 0; e < topo.edgeCount(); ++e) {
                if (topo.link(e).tier == net::FabricTier::CrossRack)
                    topo.setLinkBandwidthScale(
                        e, topo.linkBandwidthScale(e) *
                               ev.bandwidth_scale);
            }
            break;
          case LinkFaultKind::ThermalThrottle:
            slowest = std::min(slowest, ev.bandwidth_scale);
            break;
        }
    }
    return slowest;
}

std::string
describeLinkTrace(const std::vector<LinkFaultEvent> &trace,
                  const net::Topology &topo)
{
    std::ostringstream os;
    char line[192];
    std::snprintf(line, sizeof(line), "%10s  %-20s %10s %7s  %s\n",
                  "t (s)", "fault", "dur (s)", "scale", "target");
    os << line;
    for (const LinkFaultEvent &ev : trace) {
        std::string target;
        if (ev.edge >= 0) {
            auto [a, b] = topo.endpoints(ev.edge);
            target = topo.name(a) + " <-> " + topo.name(b);
        } else if (ev.node >= 0) {
            target = topo.name(ev.node) + " (all incident links)";
        } else if (ev.gpu >= 0) {
            target = "GPU" + std::to_string(ev.gpu);
        } else if (ev.kind == LinkFaultKind::SpineOversubscribed) {
            target = "all cross-rack links";
        }
        std::snprintf(line, sizeof(line),
                      "%10.1f  %-20s %10.1f %7.2f  %s\n", ev.start_s,
                      toString(ev.kind).c_str(), ev.duration_s,
                      ev.bandwidth_scale, target.c_str());
        os << line;
    }
    return os.str();
}

} // namespace mlps::fault
