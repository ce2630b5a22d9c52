/**
 * @file
 * Tests for the fault subsystem: deterministic trace generation, the
 * checkpoint/restart cost model, Young-Daly interval optimality, and
 * the fault-aware expected time-to-train.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "core/suite.h"
#include "fault/fault_model.h"
#include "fault/link_fault.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/checkpoint.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

fault::FaultModelConfig
denseProfile()
{
    // Every class enabled, aggressively, so short horizons still see
    // events of each kind.
    return fault::FaultModelConfig::datacenterProfile(2.0);
}

bool
eventsIdentical(const fault::FaultEvent &a, const fault::FaultEvent &b)
{
    return a.kind == b.kind && a.start_s == b.start_s &&
           a.duration_s == b.duration_s && a.severity == b.severity &&
           a.resource == b.resource;
}

/** One fault-free 8-GPU run shared by the expected-TTT tests. */
const train::TrainResult &
baseRun()
{
    static const train::TrainResult result = [] {
        core::Suite suite(sys::dss8440());
        train::RunOptions opts;
        opts.num_gpus = 8;
        return suite.run("MLPf_Res50_MX", opts);
    }();
    return result;
}

train::CheckpointModel
simpleCkpt()
{
    train::CheckpointModel m;
    m.bytes = 1e9;
    m.write_bytes_per_s = 1e9;
    m.barrier_s = 2.0;
    m.restart_s = 30.0;
    return m;
}

// ------------------------------------------------------ trace shape

TEST(FaultModel, SameSeedBitIdenticalTrace)
{
    fault::FaultModel a(denseProfile(), 123);
    fault::FaultModel b(denseProfile(), 123);
    auto ta = a.generate(48 * 3600.0, 8);
    auto tb = b.generate(48 * 3600.0, 8);
    ASSERT_FALSE(ta.empty());
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
        EXPECT_TRUE(eventsIdentical(ta[i], tb[i])) << "event " << i;
    // And re-generating from the same model object is stable too.
    auto tc = a.generate(48 * 3600.0, 8);
    ASSERT_EQ(tc.size(), ta.size());
    for (std::size_t i = 0; i < ta.size(); ++i)
        EXPECT_TRUE(eventsIdentical(ta[i], tc[i])) << "event " << i;
}

TEST(FaultModel, DifferentSeedsDiffer)
{
    fault::FaultModel a(denseProfile(), 1);
    fault::FaultModel b(denseProfile(), 2);
    auto ta = a.generate(48 * 3600.0, 8);
    auto tb = b.generate(48 * 3600.0, 8);
    ASSERT_FALSE(ta.empty());
    ASSERT_FALSE(tb.empty());
    bool any_diff = ta.size() != tb.size();
    for (std::size_t i = 0; !any_diff && i < ta.size(); ++i)
        any_diff = !eventsIdentical(ta[i], tb[i]);
    EXPECT_TRUE(any_diff);
}

TEST(FaultModel, ForkedStreamsDecorrelated)
{
    // Disabling every other class must not perturb one class's
    // arrivals: each class draws from its own forked stream.
    fault::FaultModelConfig full = denseProfile();
    fault::FaultModelConfig only_stall;
    only_stall.gpu_stall = full.gpu_stall;
    auto full_trace =
        fault::FaultModel(full, 9).generate(48 * 3600.0, 4);
    auto stall_trace =
        fault::FaultModel(only_stall, 9).generate(48 * 3600.0, 4);
    std::vector<fault::FaultEvent> full_stalls;
    for (const auto &ev : full_trace)
        if (ev.kind == fault::FaultKind::GpuStall)
            full_stalls.push_back(ev);
    ASSERT_FALSE(stall_trace.empty());
    ASSERT_EQ(full_stalls.size(), stall_trace.size());
    for (std::size_t i = 0; i < stall_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(full_stalls[i], stall_trace[i]))
            << "event " << i;
}

TEST(FaultModel, LongerHorizonPreservesPrefix)
{
    fault::FaultModel m(denseProfile(), 17);
    auto short_trace = m.generate(24 * 3600.0, 8);
    auto long_trace = m.generate(96 * 3600.0, 8);
    ASSERT_FALSE(short_trace.empty());
    ASSERT_GE(long_trace.size(), short_trace.size());
    for (std::size_t i = 0; i < short_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(short_trace[i], long_trace[i]))
            << "event " << i;
}

/** Time-ordered, inside the horizon, with class-consistent fields. */
void
expectWellFormed(const std::vector<fault::FaultEvent> &trace,
                 double horizon_s, int num_gpus)
{
    double prev = 0.0;
    for (const auto &ev : trace) {
        EXPECT_GE(ev.start_s, prev);
        prev = ev.start_s;
        EXPECT_LT(ev.start_s, horizon_s);
        if (ev.kind == fault::FaultKind::Preemption ||
            ev.kind == fault::FaultKind::GpuLoss) {
            EXPECT_DOUBLE_EQ(ev.duration_s, 0.0);
            EXPECT_DOUBLE_EQ(ev.severity, 0.0);
        } else {
            EXPECT_GT(ev.duration_s, 0.0);
            EXPECT_GE(ev.severity, 0.05);
            EXPECT_LE(ev.severity, 0.98);
        }
        bool gpu_scoped = ev.kind == fault::FaultKind::GpuStall ||
                          ev.kind == fault::FaultKind::EccRetryStorm ||
                          ev.kind == fault::FaultKind::GpuLoss;
        if (gpu_scoped) {
            EXPECT_GE(ev.resource, 0);
            EXPECT_LT(ev.resource, num_gpus);
        } else {
            EXPECT_EQ(ev.resource, -1);
        }
    }
}

TEST(FaultModel, TraceIsSortedAndWellFormed)
{
    fault::FaultModel m(denseProfile(), 5);
    auto trace = m.generate(72 * 3600.0, 4);
    ASSERT_FALSE(trace.empty());
    expectWellFormed(trace, 72 * 3600.0, 4);
}

TEST(FaultModel, LongHorizonIsWellFormedAndPrefixStable)
{
    // 1500 h is past the point where a saturated gap used to overflow
    // the arrival clock (the CLI's default profile and seed).
    fault::FaultModel m(fault::FaultModelConfig::datacenterProfile(24.0),
                        42);
    auto long_trace = m.generate(1500 * 3600.0, 8);
    auto short_trace = m.generate(1000 * 3600.0, 8);
    ASSERT_FALSE(short_trace.empty());
    ASSERT_GT(long_trace.size(), short_trace.size());
    expectWellFormed(long_trace, 1500 * 3600.0, 8);
    for (std::size_t i = 0; i < short_trace.size(); ++i)
        EXPECT_TRUE(eventsIdentical(short_trace[i], long_trace[i]))
            << "event " << i;
}

TEST(FaultModel, HorizonPastSimTimeRangeIsFatal)
{
    fault::FaultModel m(denseProfile(), 1);
    try {
        m.generate(3000 * 3600.0, 8);
        FAIL() << "a 3000 h horizon was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("2555.6 h"),
                  std::string::npos)
            << e.what();
    }
    // A disabled model has nothing to truncate.
    EXPECT_TRUE(fault::FaultModel(fault::FaultModelConfig{}, 1)
                    .generate(3000 * 3600.0, 8)
                    .empty());
}

TEST(FaultModel, DisabledConfigYieldsEmptyTrace)
{
    fault::FaultModelConfig cfg;
    EXPECT_TRUE(cfg.allDisabled());
    fault::FaultModel m(cfg, 1);
    EXPECT_TRUE(m.generate(3600.0, 4).empty());
}

TEST(FaultModel, ConfigValidation)
{
    EXPECT_THROW(fault::FaultModelConfig::datacenterProfile(0.0),
                 FatalError);
    fault::FaultModelConfig bad;
    bad.gpu_stall = {10.0, -5.0, 0.5};
    EXPECT_THROW(fault::FaultModel(bad, 1), FatalError);
    bad.gpu_stall = {10.0, 30.0, 1.5};
    EXPECT_THROW(fault::FaultModel(bad, 1), FatalError);
    fault::FaultModel ok(denseProfile(), 1);
    EXPECT_THROW(ok.generate(-1.0, 4), FatalError);
    EXPECT_THROW(ok.generate(3600.0, 0), FatalError);
}

TEST(FaultModel, AggregateRateMatchesProfile)
{
    auto cfg = fault::FaultModelConfig::datacenterProfile(10.0);
    EXPECT_NEAR(cfg.totalRatePerHour(), 0.1, 1e-12);
}

// ------------------------------------ link-fault stream isolation

/** Order-sensitive FNV-1a digest over a trace's fields. */
struct TraceDigest {
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    void
    add(double d)
    {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        add(u);
    }
    void
    add(int v)
    {
        add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
};

/** Digest of a node-fault trace. */
std::uint64_t
traceDigest(const std::vector<fault::FaultEvent> &trace)
{
    TraceDigest d;
    for (const auto &ev : trace) {
        d.add(static_cast<std::uint64_t>(ev.kind));
        d.add(ev.start_s);
        d.add(ev.duration_s);
        d.add(ev.severity);
        d.add(ev.resource);
    }
    return d.h;
}

/** Digest of a link-fault trace, every target field included. */
std::uint64_t
linkTraceDigest(const std::vector<fault::LinkFaultEvent> &trace)
{
    TraceDigest d;
    for (const auto &ev : trace) {
        d.add(static_cast<std::uint64_t>(ev.kind));
        d.add(ev.start_s);
        d.add(ev.duration_s);
        d.add(ev.bandwidth_scale);
        d.add(ev.edge);
        d.add(ev.gpu);
        d.add(ev.node);
    }
    return d.h;
}

// The golden digest of FaultModel(datacenterProfile(2.0), 123) over
// 48 h on 8 GPUs, recorded when the link-fault domain was added. If
// this test fails, the node-fault RNG stream has been perturbed —
// every faulted study in every published report silently changes.
constexpr std::uint64_t kGoldenNodeTraceDigest = 0x1f0df0b3cd284139ULL;

TEST(LinkFaultIsolation, NodeTraceMatchesGoldenDigest)
{
    fault::FaultModel m(denseProfile(), 123);
    EXPECT_EQ(traceDigest(m.generate(48 * 3600.0, 8)),
              kGoldenNodeTraceDigest);
}

// Golden digests of LinkFaultModel(datacenterProfile(1.0), 123) over
// 48 h, on a single box (the four box-local classes) and on a 4x4 pod
// of the same box (adding NIC flaps, ToR failures and spine
// congestion). A failure means a link-fault RNG stream, its draw order
// or the trace order changed.
constexpr std::uint64_t kGoldenBoxLinkTraceDigest = 0xeb58847bcfaac93fULL;
constexpr std::uint64_t kGoldenPodLinkTraceDigest = 0xa551667187adb7fdULL;

TEST(LinkFaultIsolation, LinkTracesMatchGoldenDigests)
{
    fault::LinkFaultModel m(fault::LinkFaultConfig::datacenterProfile(1.0),
                            123);
    auto box_trace = m.generate(48 * 3600.0, sys::c4140M().topo);
    EXPECT_EQ(box_trace.size(), 57u);
    EXPECT_EQ(linkTraceDigest(box_trace), kGoldenBoxLinkTraceDigest);

    sys::SystemConfig pod;
    std::string error;
    ASSERT_TRUE(sys::systemFromSpec("pod(C4140 (M),4x4)", &pod, &error))
        << error;
    auto pod_trace = m.generate(48 * 3600.0, pod.topo);
    int per_kind[fault::kNumLinkFaultKinds] = {};
    for (const auto &ev : pod_trace)
        ++per_kind[static_cast<int>(ev.kind)];
    EXPECT_GT(per_kind[static_cast<int>(fault::LinkFaultKind::NicFlap)], 0);
    EXPECT_GT(per_kind[static_cast<int>(fault::LinkFaultKind::TorDown)], 0);
    EXPECT_GT(per_kind[static_cast<int>(
                  fault::LinkFaultKind::SpineOversubscribed)],
              0);
    EXPECT_EQ(pod_trace.size(), 84u);
    EXPECT_EQ(linkTraceDigest(pod_trace), kGoldenPodLinkTraceDigest);
}

TEST(LinkFaultIsolation, LinkFaultsNeverPerturbNodeTraces)
{
    // Node and link faults draw from separate models and seeds; the
    // node trace must stay bit-identical to its golden digest no
    // matter how the link-fault domain is configured or exercised.
    sys::SystemConfig box = sys::c4140M();
    for (double link_mttf : {0.5, 2.0, 100.0}) {
        fault::LinkFaultModel links(
            fault::LinkFaultConfig::datacenterProfile(link_mttf), 123);
        auto link_trace = links.generate(48 * 3600.0, box.topo);
        if (link_mttf <= 2.0)
            ASSERT_FALSE(link_trace.empty());
        fault::applyLinkFaults(box.topo, link_trace, 3600.0);

        fault::FaultModel nodes(denseProfile(), 123);
        EXPECT_EQ(traceDigest(nodes.generate(48 * 3600.0, 8)),
                  kGoldenNodeTraceDigest)
            << "link MTTF " << link_mttf << " h";
    }
    box.topo.resetLinkState();
}

// -------------------------------------- checkpoint interval solvers

TEST(Checkpoint, OptimalIntervalMatchesYoungDaly)
{
    // The acceptance bar: the numeric optimum agrees with the
    // Young-Daly closed form within 10% when C << MTTF.
    const double C = 60.0, R = 30.0, M = 24.0 * 3600.0;
    double yd = train::youngDalyInterval(C, M);
    double opt = train::optimalCheckpointInterval(C, R, M);
    EXPECT_NEAR(opt, yd, 0.10 * yd);
    // And across a range of regimes.
    for (double c : {5.0, 120.0, 600.0}) {
        for (double m : {12.0 * 3600.0, 7.0 * 24.0 * 3600.0}) {
            double y = train::youngDalyInterval(c, m);
            double o = train::optimalCheckpointInterval(c, 30.0, m);
            EXPECT_NEAR(o, y, 0.10 * y) << "C=" << c << " M=" << m;
        }
    }
}

TEST(Checkpoint, OptimalIntervalBeatsNeighbours)
{
    const double C = 60.0, R = 30.0, M = 24.0 * 3600.0;
    const double work = 8.0 * 3600.0;
    double opt = train::optimalCheckpointInterval(C, R, M);
    double at_opt = train::expectedRunSeconds(work, opt, C, R, M);
    EXPECT_GE(train::expectedRunSeconds(work, opt * 2.0, C, R, M),
              at_opt);
    EXPECT_GE(train::expectedRunSeconds(work, opt * 0.5, C, R, M),
              at_opt);
}

TEST(Checkpoint, ExpectedRunReducesToOverheadWithoutFailures)
{
    const double inf = std::numeric_limits<double>::infinity();
    double t = train::expectedRunSeconds(3600.0, 600.0, 30.0, 10.0, inf);
    EXPECT_DOUBLE_EQ(t, 3600.0 + 6.0 * 30.0);
    EXPECT_DOUBLE_EQ(train::expectedRunSeconds(0.0, 600.0, 30.0, 10.0,
                                               3600.0), 0.0);
    EXPECT_THROW(train::expectedRunSeconds(10.0, 0.0, 1.0, 1.0, 10.0),
                 FatalError);
    EXPECT_THROW(train::youngDalyInterval(0.0, 10.0), FatalError);
    EXPECT_THROW(train::optimalCheckpointInterval(1.0, 1.0, 0.0),
                 FatalError);
}

TEST(Checkpoint, ModelValidationAndCost)
{
    auto m = simpleCkpt();
    EXPECT_DOUBLE_EQ(m.checkpointSeconds(), 3.0);
    m.bytes = 0.0;
    EXPECT_THROW(m.validate(), FatalError);
    m = simpleCkpt();
    m.write_bytes_per_s = -1.0;
    EXPECT_THROW(m.validate(), FatalError);
}

TEST(Checkpoint, ModelForSystemIsPlausible)
{
    core::Suite suite(sys::dss8440());
    const core::Benchmark *b = suite.registry().find("MLPf_Res50_MX");
    ASSERT_NE(b, nullptr);
    auto m = train::checkpointModelFor(suite.system(), b->spec());
    // ResNet-50: tens to hundreds of MB of weights + optimizer state.
    EXPECT_GT(m.bytes, 1e7);
    EXPECT_LT(m.bytes, 1e10);
    EXPECT_GT(m.write_bytes_per_s, 1e8);
    EXPECT_GT(m.checkpointSeconds(), 0.0);
}

// ----------------------------------------- fault-aware time-to-train

TEST(FaultedRun, DeterministicAcrossRuns)
{
    const auto &base = baseRun();
    fault::FaultModel model(
        fault::FaultModelConfig::datacenterProfile(12.0), 42);
    auto a = train::applyFaultTrace(base, simpleCkpt(), model);
    auto b = train::applyFaultTrace(base, simpleCkpt(), model);
    EXPECT_EQ(a.expected_seconds, b.expected_seconds);
    EXPECT_EQ(a.lost_work_s, b.lost_work_s);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.degradations, b.degradations);
}

TEST(FaultedRun, ExpectedTimeMonotoneInMttf)
{
    // More reliable machines finish sooner in expectation; by 10^4
    // hours the fault-adjusted time converges to the fault-free run.
    const auto &base = baseRun();
    auto ckpt = simpleCkpt();
    double prev = std::numeric_limits<double>::infinity();
    for (double mttf : {3.0, 30.0, 300.0, 3000.0, 30000.0}) {
        fault::FaultModel model(
            fault::FaultModelConfig::datacenterProfile(mttf), 42);
        auto ft = train::applyFaultTrace(base, ckpt, model);
        EXPECT_LE(ft.expected_seconds, prev + 1e-6)
            << "MTTF " << mttf << " h";
        EXPECT_GE(ft.expected_seconds, base.total_seconds - 1e-6);
        prev = ft.expected_seconds;
    }
    EXPECT_NEAR(prev, base.total_seconds,
                0.01 * base.total_seconds);
}

TEST(FaultedRun, DisabledFaultsMatchBaseExactly)
{
    const auto &base = baseRun();
    fault::FaultModel model(fault::FaultModelConfig{}, 42);
    auto ft = train::applyFaultTrace(base, simpleCkpt(), model);
    EXPECT_DOUBLE_EQ(ft.expected_seconds, base.total_seconds);
    EXPECT_EQ(ft.failures, 0);
    EXPECT_EQ(ft.degradations, 0);
    EXPECT_DOUBLE_EQ(ft.goodput(), 1.0);
    EXPECT_DOUBLE_EQ(ft.availability(), 1.0);
    EXPECT_TRUE(std::isinf(ft.checkpoint_interval_s));
}

TEST(FaultedRun, HarshFaultsStretchTheRun)
{
    const auto &base = baseRun();
    fault::FaultModel model(
        fault::FaultModelConfig::datacenterProfile(1.0), 42);
    auto ft = train::applyFaultTrace(base, simpleCkpt(), model);
    EXPECT_GT(ft.expected_seconds, base.total_seconds);
    EXPECT_GT(ft.failures + ft.degradations, 0);
    EXPECT_LT(ft.goodput(), 1.0);
    EXPECT_LE(ft.availability(), 1.0);
    // The breakdown accounts for the stretch.
    double accounted = base.total_seconds + ft.checkpoint_overhead_s +
                       ft.degraded_overhead_s + ft.lost_work_s +
                       ft.restart_overhead_s;
    EXPECT_NEAR(ft.expected_seconds, accounted,
                1e-6 * ft.expected_seconds);
}

TEST(FaultedRun, ExplicitIntervalIsHonoured)
{
    const auto &base = baseRun();
    fault::FaultModel model(
        fault::FaultModelConfig::datacenterProfile(12.0), 42);
    auto ft =
        train::applyFaultTrace(base, simpleCkpt(), model, 1234.0);
    EXPECT_DOUBLE_EQ(ft.checkpoint_interval_s, 1234.0);
}

} // namespace
