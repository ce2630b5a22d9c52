/**
 * @file
 * Tests for the link-level fault domain: deterministic link-fault
 * trace generation and per-class stream isolation, applying traces to
 * a topology's dynamic link state, the fabric-fault replay of a
 * training run, and the paper's Fig. 5 ordering under a degraded
 * fabric (healthy NVLink <= degraded NVLink <= CPU-PCIe must emerge
 * from the model, never from a hard-coded rule).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "fault/link_fault.h"
#include "models/zoo.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/fabric_faults.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

fault::LinkFaultConfig
denseLinkProfile()
{
    // Aggressive aggregate MTTF so short horizons see every class.
    return fault::LinkFaultConfig::datacenterProfile(1.0);
}

bool
eventsIdentical(const fault::LinkFaultEvent &a,
                const fault::LinkFaultEvent &b)
{
    return a.kind == b.kind && a.start_s == b.start_s &&
           a.duration_s == b.duration_s &&
           a.bandwidth_scale == b.bandwidth_scale && a.edge == b.edge &&
           a.gpu == b.gpu;
}

// ------------------------------------------------------ trace shape

TEST(LinkFaultModel, SameSeedBitIdenticalTrace)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel a(denseLinkProfile(), 7);
    fault::LinkFaultModel b(denseLinkProfile(), 7);
    auto ta = a.generate(48 * 3600.0, box.topo);
    auto tb = b.generate(48 * 3600.0, box.topo);
    ASSERT_FALSE(ta.empty());
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
        EXPECT_TRUE(eventsIdentical(ta[i], tb[i])) << "event " << i;
}

TEST(LinkFaultModel, DifferentSeedsDiffer)
{
    sys::SystemConfig box = sys::c4140M();
    auto ta = fault::LinkFaultModel(denseLinkProfile(), 1)
                  .generate(48 * 3600.0, box.topo);
    auto tb = fault::LinkFaultModel(denseLinkProfile(), 2)
                  .generate(48 * 3600.0, box.topo);
    ASSERT_FALSE(ta.empty());
    ASSERT_FALSE(tb.empty());
    bool any_diff = ta.size() != tb.size();
    for (std::size_t i = 0; !any_diff && i < ta.size(); ++i)
        any_diff = !eventsIdentical(ta[i], tb[i]);
    EXPECT_TRUE(any_diff);
}

TEST(LinkFaultModel, ClassStreamsAreIsolated)
{
    // Disabling every other class must not perturb one class's
    // arrivals: each class forks its own stream in a fixed order.
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultConfig full = denseLinkProfile();
    fault::LinkFaultConfig only_down;
    only_down.link_down = full.link_down;
    auto full_trace =
        fault::LinkFaultModel(full, 9).generate(72 * 3600.0, box.topo);
    auto down_trace = fault::LinkFaultModel(only_down, 9)
                          .generate(72 * 3600.0, box.topo);
    std::vector<fault::LinkFaultEvent> full_downs;
    for (const auto &ev : full_trace)
        if (ev.kind == fault::LinkFaultKind::LinkDown)
            full_downs.push_back(ev);
    ASSERT_FALSE(down_trace.empty());
    ASSERT_EQ(full_downs.size(), down_trace.size());
    for (std::size_t i = 0; i < down_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(full_downs[i], down_trace[i]))
            << "event " << i;
}

TEST(LinkFaultModel, LongerHorizonPreservesPrefix)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel m(denseLinkProfile(), 17);
    auto short_trace = m.generate(24 * 3600.0, box.topo);
    auto long_trace = m.generate(96 * 3600.0, box.topo);
    ASSERT_FALSE(short_trace.empty());
    ASSERT_GE(long_trace.size(), short_trace.size());
    for (std::size_t i = 0; i < short_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(short_trace[i], long_trace[i]))
            << "event " << i;
}

TEST(LinkFaultModel, TraceIsSortedAndTargetsEligibleHardware)
{
    sys::SystemConfig box = sys::c4140M();
    const net::Topology &topo = box.topo;
    auto trace = fault::LinkFaultModel(denseLinkProfile(), 5)
                     .generate(96 * 3600.0, topo);
    ASSERT_FALSE(trace.empty());
    bool saw[fault::kNumLinkFaultKinds] = {};
    double prev = 0.0;
    for (const auto &ev : trace) {
        EXPECT_GE(ev.start_s, prev);
        prev = ev.start_s;
        EXPECT_LT(ev.start_s, 96 * 3600.0);
        EXPECT_GT(ev.duration_s, 0.0);
        saw[static_cast<int>(ev.kind)] = true;
        switch (ev.kind) {
          case fault::LinkFaultKind::NvLinkLaneDegrade:
            ASSERT_GE(ev.edge, 0);
            EXPECT_EQ(topo.link(ev.edge).kind, net::LinkKind::NvLink);
            EXPECT_GE(ev.bandwidth_scale, 0.05);
            EXPECT_LE(ev.bandwidth_scale, 0.95);
            break;
          case fault::LinkFaultKind::PcieDowntrain:
            ASSERT_GE(ev.edge, 0);
            EXPECT_EQ(topo.link(ev.edge).kind, net::LinkKind::Pcie3);
            EXPECT_GE(ev.bandwidth_scale, 0.05);
            EXPECT_LE(ev.bandwidth_scale, 0.95);
            break;
          case fault::LinkFaultKind::LinkDown:
            ASSERT_GE(ev.edge, 0);
            EXPECT_NE(topo.link(ev.edge).kind, net::LinkKind::Upi);
            EXPECT_DOUBLE_EQ(ev.bandwidth_scale, 0.0);
            break;
          case fault::LinkFaultKind::ThermalThrottle:
            EXPECT_EQ(ev.edge, -1);
            ASSERT_GE(ev.gpu, 0);
            EXPECT_LT(ev.gpu, static_cast<int>(box.gpu_nodes.size()));
            EXPECT_GE(ev.bandwidth_scale, 0.05);
            EXPECT_LE(ev.bandwidth_scale, 0.95);
            break;
          case fault::LinkFaultKind::NicFlap:
          case fault::LinkFaultKind::TorDown:
          case fault::LinkFaultKind::SpineOversubscribed:
            ADD_FAILURE() << "pod-scale class " << toString(ev.kind)
                          << " fired on a single box";
            break;
        }
    }
    // Only the four box-local classes have targets on a single box;
    // the pod-scale classes are exercised in pod_fabric_test.
    constexpr int kBoxLocalKinds = 4;
    for (int k = 0; k < kBoxLocalKinds; ++k)
        EXPECT_TRUE(saw[k]) << "class " << k << " never fired in 96 h";
}

TEST(LinkFaultModel, LongHorizonIsWellFormedAndPrefixStable)
{
    // 1500 h is past the point where a saturated gap used to overflow
    // the arrival clock. The pod carries all seven classes.
    sys::SystemConfig pod;
    std::string error;
    ASSERT_TRUE(sys::systemFromSpec("pod(C4140 (M),2x2)", &pod, &error))
        << error;
    fault::LinkFaultModel m(fault::LinkFaultConfig::datacenterProfile(50.0),
                            3);
    auto long_trace = m.generate(1500 * 3600.0, pod.topo);
    auto short_trace = m.generate(1000 * 3600.0, pod.topo);
    ASSERT_FALSE(short_trace.empty());
    ASSERT_GT(long_trace.size(), short_trace.size());
    double prev = 0.0;
    for (const auto &ev : long_trace) {
        EXPECT_GE(ev.start_s, prev);
        prev = ev.start_s;
        EXPECT_LT(ev.start_s, 1500 * 3600.0);
        EXPECT_GT(ev.duration_s, 0.0);
        EXPECT_LT(ev.edge, pod.topo.edgeCount());
        EXPECT_LT(ev.node, pod.topo.nodeCount());
    }
    for (std::size_t i = 0; i < short_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(short_trace[i], long_trace[i]))
            << "event " << i;
}

TEST(LinkFaultModel, HorizonPastSimTimeRangeIsFatal)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel m(denseLinkProfile(), 1);
    try {
        m.generate(3000 * 3600.0, box.topo);
        FAIL() << "a 3000 h horizon was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("2555.6 h"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LinkFaultModel, NoEligibleTargetMeansNoEvents)
{
    // t640 has no NVLink: lane-degrade events cannot appear, but the
    // other classes still fire (their streams are independent).
    sys::SystemConfig box = sys::t640();
    auto trace = fault::LinkFaultModel(denseLinkProfile(), 5)
                     .generate(96 * 3600.0, box.topo);
    ASSERT_FALSE(trace.empty());
    for (const auto &ev : trace)
        EXPECT_NE(ev.kind, fault::LinkFaultKind::NvLinkLaneDegrade);
}

TEST(LinkFaultModel, DisabledConfigYieldsEmptyTrace)
{
    fault::LinkFaultConfig cfg;
    EXPECT_TRUE(cfg.allDisabled());
    sys::SystemConfig box = sys::c4140M();
    EXPECT_TRUE(fault::LinkFaultModel(cfg, 1)
                    .generate(3600.0, box.topo)
                    .empty());
}

TEST(LinkFaultModel, ConfigValidation)
{
    EXPECT_THROW(fault::LinkFaultConfig::datacenterProfile(0.0),
                 FatalError);
    fault::LinkFaultConfig bad;
    bad.link_down = {10.0, -5.0, 0.0};
    EXPECT_THROW(fault::LinkFaultModel(bad, 1), FatalError);
    bad = fault::LinkFaultConfig{};
    bad.nvlink_lane_degrade = {10.0, 30.0, 1.5};
    EXPECT_THROW(fault::LinkFaultModel(bad, 1), FatalError);
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel ok(denseLinkProfile(), 1);
    EXPECT_THROW(ok.generate(-1.0, box.topo), FatalError);
}

// ------------------------------------------------- applying a trace

TEST(ApplyLinkFaults, DownAndScaleAndThrottle)
{
    sys::SystemConfig box = sys::c4140M();
    std::vector<fault::LinkFaultEvent> trace;
    trace.push_back({fault::LinkFaultKind::LinkDown, 10.0, 50.0, 0.0,
                     0, -1});
    trace.push_back({fault::LinkFaultKind::PcieDowntrain, 20.0, 100.0,
                     0.5, 1, -1});
    trace.push_back({fault::LinkFaultKind::ThermalThrottle, 30.0, 40.0,
                     0.7, -1, 2});

    // All three active at t=35.
    double throttle = fault::applyLinkFaults(box.topo, trace, 35.0);
    EXPECT_DOUBLE_EQ(throttle, 0.7);
    EXPECT_TRUE(box.topo.linkDown(0));
    EXPECT_DOUBLE_EQ(box.topo.linkBandwidthScale(1), 0.5);

    // At t=80 the down link healed and the throttle lifted.
    throttle = fault::applyLinkFaults(box.topo, trace, 80.0);
    EXPECT_DOUBLE_EQ(throttle, 1.0);
    EXPECT_FALSE(box.topo.linkDown(0));
    EXPECT_DOUBLE_EQ(box.topo.linkBandwidthScale(1), 0.5);

    // Before anything starts: pristine.
    fault::applyLinkFaults(box.topo, trace, 0.0);
    EXPECT_FALSE(box.topo.degraded());
}

TEST(ApplyLinkFaults, OverlappingDegradationsCompound)
{
    sys::SystemConfig box = sys::c4140M();
    std::vector<fault::LinkFaultEvent> trace;
    trace.push_back({fault::LinkFaultKind::PcieDowntrain, 0.0, 100.0,
                     0.5, 1, -1});
    trace.push_back({fault::LinkFaultKind::PcieDowntrain, 10.0, 100.0,
                     0.5, 1, -1});
    fault::applyLinkFaults(box.topo, trace, 50.0);
    EXPECT_DOUBLE_EQ(box.topo.linkBandwidthScale(1), 0.25);
}

TEST(ApplyLinkFaults, DescribeNamesTargets)
{
    sys::SystemConfig box = sys::c4140M();
    auto trace = fault::LinkFaultModel(denseLinkProfile(), 3)
                     .generate(48 * 3600.0, box.topo);
    ASSERT_FALSE(trace.empty());
    std::string text = fault::describeLinkTrace(trace, box.topo);
    EXPECT_NE(text.find("fault"), std::string::npos);
    // Every class that fired is named in the rendering.
    for (const auto &ev : trace)
        EXPECT_NE(text.find(toString(ev.kind)), std::string::npos);
}

// ------------------------------------------------- training replay

wl::WorkloadSpec
res50()
{
    return *models::findWorkload("MLPf_Res50_MX");
}

train::RunOptions
fourGpus()
{
    train::RunOptions opts;
    opts.num_gpus = 4;
    return opts;
}

TEST(LinkFaultedRun, DeterministicAcrossCalls)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel model(denseLinkProfile(), 42);
    auto a = train::applyLinkFaultTrace(box, res50(), fourGpus(), model);
    auto b = train::applyLinkFaultTrace(box, res50(), fourGpus(), model);
    EXPECT_EQ(a.expected_seconds, b.expected_seconds);
    EXPECT_EQ(a.degraded_overhead_s, b.degraded_overhead_s);
    EXPECT_EQ(a.topology_epochs, b.topology_epochs);
    EXPECT_EQ(a.max_reroutes, b.max_reroutes);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.degradations, b.degradations);
}

TEST(LinkFaultedRun, DisabledFaultsMatchBaseExactly)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel model(fault::LinkFaultConfig{}, 42);
    auto ft = train::applyLinkFaultTrace(box, res50(), fourGpus(), model);
    EXPECT_DOUBLE_EQ(ft.expected_seconds, ft.base.total_seconds);
    EXPECT_DOUBLE_EQ(ft.degraded_overhead_s, 0.0);
    EXPECT_EQ(ft.topology_epochs, 0);
    EXPECT_EQ(ft.degradations, 0);
    EXPECT_DOUBLE_EQ(ft.goodput(), 1.0);
}

TEST(LinkFaultedRun, HarshLinkFaultsStretchTheRun)
{
    sys::SystemConfig box = sys::c4140M();
    fault::LinkFaultModel model(
        fault::LinkFaultConfig::datacenterProfile(0.25), 42);
    auto ft = train::applyLinkFaultTrace(box, res50(), fourGpus(), model);
    EXPECT_GT(ft.expected_seconds, ft.base.total_seconds);
    EXPECT_GT(ft.degraded_overhead_s, 0.0);
    EXPECT_GT(ft.degradations, 0);
    EXPECT_GT(ft.topology_epochs, 0);
    EXPECT_LT(ft.goodput(), 1.0);
    EXPECT_NEAR(ft.expected_seconds,
                ft.base.total_seconds + ft.degraded_overhead_s,
                1e-9 * ft.expected_seconds);
    // The caller's system is left pristine.
    EXPECT_FALSE(box.topo.degraded());
}

TEST(LinkFaultedRun, MoreReliableFabricFinishesSooner)
{
    sys::SystemConfig box = sys::c4140M();
    double prev = std::numeric_limits<double>::infinity();
    for (double mttf : {0.5, 5.0, 500.0}) {
        fault::LinkFaultModel model(
            fault::LinkFaultConfig::datacenterProfile(mttf), 42);
        auto ft =
            train::applyLinkFaultTrace(box, res50(), fourGpus(), model);
        EXPECT_LE(ft.expected_seconds, prev + 1e-6)
            << "link MTTF " << mttf << " h";
        EXPECT_GE(ft.expected_seconds, ft.base.total_seconds - 1e-6);
        prev = ft.expected_seconds;
    }
}

// --------------------------------- Fig. 5 under a degraded fabric

// The acceptance bar of the fault domain: for every MLPerf workload,
// healthy NVLink <= NVLink with one edge hard-down <= CPU-PCIe. The
// ordering must emerge from routing, fabric fallback, and the flow
// model — nothing in the fault domain hard-codes it.
TEST(DegradedFig5, OrderingEmergesForEveryWorkload)
{
    sys::SystemConfig healthy = sys::c4140M();
    sys::SystemConfig degraded = sys::withNvlinkEdgeDown(healthy, 0);
    sys::SystemConfig cpu_pcie = sys::t640();
    train::Trainer t_h(healthy), t_d(degraded), t_c(cpu_pcie);
    for (const auto &spec : models::mlperfSuite()) {
        SCOPED_TRACE(spec.abbrev);
        train::RunOptions opts = fourGpus();
        double h = t_h.run(spec, opts).total_seconds;
        double d = t_d.run(spec, opts).total_seconds;
        double c = t_c.run(spec, opts).total_seconds;
        EXPECT_LE(h, d + 1e-9);
        EXPECT_LE(d, c + 1e-9);
    }
}

TEST(DegradedFig5, DowntrainedPcieSitsBetweenHealthyAndWorse)
{
    sys::SystemConfig healthy = sys::t640();
    sys::SystemConfig mild = sys::withPcieDowntrained(healthy, 0.5);
    sys::SystemConfig harsh = sys::withPcieDowntrained(healthy, 0.25);
    train::Trainer t_h(healthy), t_m(mild), t_x(harsh);
    train::RunOptions opts = fourGpus();
    auto spec = res50();
    double h = t_h.run(spec, opts).total_seconds;
    double m = t_m.run(spec, opts).total_seconds;
    double x = t_x.run(spec, opts).total_seconds;
    EXPECT_LE(h, m + 1e-9);
    EXPECT_LE(m, x + 1e-9);
}

} // namespace
