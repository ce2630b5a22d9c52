/**
 * @file
 * Hierarchical datacenter fabric tests: pod composition and
 * validation, hierarchical collectives (per-tier byte conservation,
 * exact degenerate delegation, emergent degradation ordering, the
 * 2D ring versus the cross-rack tree), the pod-scale fault classes,
 * the pod spec grammar shared by the CLI and serve, request-
 * fingerprint coverage of the hierarchy, trainer-level scale-out
 * across pod hosts (pods are the one multi-node model), and a
 * 128-GPU link-state mutation stress with seeded-replay determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "exec/fingerprint.h"
#include "fault/link_fault.h"
#include "models/zoo.h"
#include "net/allreduce.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "sim/logger.h"
#include "sim/rng.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

// ------------------------------------------------ pod composition

TEST(PodTopology, ComposesRacksOfBoxes)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 4);
    EXPECT_EQ(pod.name, "C4140 (M) pod 4x4");
    EXPECT_EQ(pod.num_gpus, 64);
    EXPECT_EQ(pod.num_cpus, 32);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::TorSwitch).size(),
              4u);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::SpineSwitch).size(),
              2u);
    EXPECT_EQ(pod.topo.nodesOfKind(net::NodeKind::Nic).size(), 16u);
    pod.validate(); // must hold all SystemConfig + graph invariants

    net::FabricShape shape =
        net::fabricShape(pod.topo, pod.gpu_nodes);
    EXPECT_EQ(shape.node_groups.size(), 16u);
    EXPECT_EQ(shape.rack_groups.size(), 4u);
    EXPECT_TRUE(shape.uniform());
}

TEST(PodTopology, SingleRackPodHasNoSpineLayer)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 1, 4);
    EXPECT_TRUE(
        pod.topo.nodesOfKind(net::NodeKind::SpineSwitch).empty());
    pod.validate();
}

// ---------------------------------------------- validate() rules

/** Expect validate() to throw (CLI exit code 3) with a hint. */
void
expectInvalid(const net::Topology &topo, const std::string &hint)
{
    try {
        topo.validate();
        FAIL() << "validate() accepted a malformed hierarchy "
               << "(expected hint: " << hint << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
            << "got: " << e.what();
    }
}

TEST(PodValidation, RejectsGpuWiredToSpine)
{
    net::Topology topo;
    net::NodeId cpu = topo.addCpu("CPU0");
    net::NodeId gpu = topo.addGpu("GPU0");
    net::NodeId spine = topo.addSpineSwitch("spine0");
    topo.connect(cpu, gpu, net::pcie3(16));
    topo.connect(gpu, spine,
                 net::ethernet(100.0, net::FabricTier::CrossRack));
    expectInvalid(topo, "behind a NIC");
}

TEST(PodValidation, RejectsNicWithoutUplink)
{
    net::Topology topo;
    net::NodeId cpu = topo.addCpu("CPU0");
    net::NodeId gpu = topo.addGpu("GPU0");
    net::NodeId nic = topo.addNic("NIC0");
    topo.connect(cpu, gpu, net::pcie3(16));
    topo.connect(cpu, nic, net::pcie3(16));
    expectInvalid(topo, "zero uplinks");
}

TEST(PodValidation, RejectsRackStrandedFromSpineLayer)
{
    net::Topology topo;
    net::NodeId tor0 = topo.addTorSwitch("tor0");
    net::NodeId tor1 = topo.addTorSwitch("tor1");
    net::NodeId spine = topo.addSpineSwitch("spine0");
    topo.connect(tor0, spine,
                 net::ethernet(100.0, net::FabricTier::CrossRack));
    // tor1 reaches the pod only through tor0 — not a spine uplink.
    topo.connect(tor1, tor0,
                 net::ethernet(100.0, net::FabricTier::IntraRack));
    expectInvalid(topo, "disconnected from the pod");
}

// ------------------------------------- hierarchical collectives

TEST(HierarchicalAllReduce, PerTierBytesPartitionKindTotals)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 4);
    const double bytes = 64.0 * 1024 * 1024;
    net::AllReduceResult r = net::autoHierarchicalAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    ASSERT_GT(r.seconds, 0.0);

    double kinds = r.nvlink_bytes + r.pcie_bytes + r.upi_bytes +
                   r.eth_bytes;
    double tiers = 0.0;
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        tiers += r.tier_bytes[t];
    // Two partitions of the same traffic.
    EXPECT_NEAR(kinds, tiers, 1e-6 * kinds);
    EXPECT_GT(kinds, 0.0);
    // A multi-rack collective must touch all three tiers.
    for (int t = 0; t < net::kNumFabricTiers; ++t)
        EXPECT_GT(r.tier_bytes[t], 0.0) << "tier " << t;
}

TEST(HierarchicalAllReduce, SingleHostPodMatchesFlatRingExactly)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 1, 1, 0);
    const double bytes = 16.0 * 1024 * 1024;
    net::AllReduceResult hier = net::hierarchicalRingAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    net::AllReduceResult flat =
        net::ringAllReduce(pod.topo, pod.gpu_nodes, bytes);
    // Bit-identical delegation, not merely close.
    EXPECT_EQ(hier.seconds, flat.seconds);
    EXPECT_EQ(hier.fabric, flat.fabric);
    EXPECT_EQ(hier.nvlink_bytes, flat.nvlink_bytes);
    EXPECT_EQ(hier.pcie_bytes, flat.pcie_bytes);
    EXPECT_EQ(hier.upi_bytes, flat.upi_bytes);
    EXPECT_EQ(hier.eth_bytes, flat.eth_bytes);
    EXPECT_EQ(hier.reroutes, flat.reroutes);

    net::AllReduceResult chosen = net::autoHierarchicalAllReduce(
        pod.topo, pod.gpu_nodes, bytes);
    EXPECT_EQ(chosen.seconds, flat.seconds);
}

TEST(HierarchicalAllReduce, DegradationOrderingIsEmergent)
{
    sys::SystemConfig healthy = sys::withPod(sys::c4140M(), 4, 4);
    sys::SystemConfig tor = sys::withTorDegraded(healthy, 0, 0.25);
    sys::SystemConfig spine = sys::withSpineDegraded(healthy, 0.25);
    const double bytes = 64.0 * 1024 * 1024;

    double t_h = net::autoHierarchicalAllReduce(
                     healthy.topo, healthy.gpu_nodes, bytes)
                     .seconds;
    double t_t = net::autoHierarchicalAllReduce(tor.topo,
                                                tor.gpu_nodes, bytes)
                     .seconds;
    double t_s = net::autoHierarchicalAllReduce(
                     spine.topo, spine.gpu_nodes, bytes)
                     .seconds;
    // One slow ToR paces the barrier steps it participates in, an
    // oversubscribed spine paces them all; the ordering emerges from
    // the flow model, it is not asserted anywhere in net/.
    EXPECT_LE(t_h, t_t);
    EXPECT_LE(t_t, t_s);
    EXPECT_LT(t_h, t_s);
}

// ------------------------------ 2D ring versus cross-rack tree

/** Four racks of two C4140 (M) hosts: 32 GPUs, a real spine tier. */
sys::SystemConfig
multiRackPod()
{
    return sys::withPod(sys::c4140M(), 4, 2);
}

TEST(TreeAllReduce, TrivialCases)
{
    sys::SystemConfig pod = multiRackPod();
    EXPECT_DOUBLE_EQ(net::hierarchicalTreeAllReduce(
                         pod.topo, {pod.gpu_nodes[0]}, 1e8)
                         .seconds,
                     0.0);
    EXPECT_DOUBLE_EQ(
        net::hierarchicalTreeAllReduce(pod.topo, pod.gpu_nodes, 0.0)
            .seconds,
        0.0);
    EXPECT_DOUBLE_EQ(
        net::hierarchicalRingAllReduce(pod.topo, pod.gpu_nodes, 0.0)
            .seconds,
        0.0);
}

TEST(TreeAllReduce, MonotoneInBytes)
{
    sys::SystemConfig pod = multiRackPod();
    EXPECT_LT(
        net::hierarchicalTreeAllReduce(pod.topo, pod.gpu_nodes, 1e8)
            .seconds,
        net::hierarchicalTreeAllReduce(pod.topo, pod.gpu_nodes, 2e8)
            .seconds);
    EXPECT_LT(
        net::hierarchicalRingAllReduce(pod.topo, pod.gpu_nodes, 1e8)
            .seconds,
        net::hierarchicalRingAllReduce(pod.topo, pod.gpu_nodes, 2e8)
            .seconds);
}

TEST(TreeAllReduce, RingWinsForLargePayloads)
{
    // The 2D ring is bandwidth-optimal across racks; the tree moves
    // each shard whole in every one of its 2*log2(R) rounds.
    sys::SystemConfig pod = multiRackPod();
    double bytes = 500e6;
    double ring =
        net::hierarchicalRingAllReduce(pod.topo, pod.gpu_nodes, bytes)
            .seconds;
    double tree =
        net::hierarchicalTreeAllReduce(pod.topo, pod.gpu_nodes, bytes)
            .seconds;
    EXPECT_LT(ring, tree);
}

TEST(TreeAllReduce, TreeWinsForTinyBucketedPayloads)
{
    // With many buckets the 2D ring pays 2*(M-1) cross-node latencies
    // per bucket, the tree only 2*log2(R) across racks.
    sys::SystemConfig pod = multiRackPod();
    net::AllReduceParams params;
    params.buckets = 200;
    double bytes = 1e5;
    double ring = net::hierarchicalRingAllReduce(pod.topo,
                                                 pod.gpu_nodes, bytes,
                                                 params)
                      .seconds;
    double tree = net::hierarchicalTreeAllReduce(pod.topo,
                                                 pod.gpu_nodes, bytes,
                                                 params)
                      .seconds;
    EXPECT_LT(tree, ring);
}

TEST(TreeAllReduce, AutoPicksTheWinner)
{
    sys::SystemConfig pod = multiRackPod();
    for (double bytes : {1e4, 1e6, 1e8, 1e9}) {
        net::AllReduceParams params;
        params.buckets = 50;
        double ring = net::hierarchicalRingAllReduce(
                          pod.topo, pod.gpu_nodes, bytes, params)
                          .seconds;
        double tree = net::hierarchicalTreeAllReduce(
                          pod.topo, pod.gpu_nodes, bytes, params)
                          .seconds;
        double chosen = net::autoHierarchicalAllReduce(
                            pod.topo, pod.gpu_nodes, bytes, params)
                            .seconds;
        EXPECT_DOUBLE_EQ(chosen, std::min(ring, tree)) << bytes;
    }
}

TEST(TreeAllReduce, AccountsTraffic)
{
    // Only the rack-leader tree crosses the spine: R-1 leader pairs
    // each move the whole payload (L shards of bytes/L) over two
    // cross-rack links (ToR->spine->ToR), doubled for the broadcast.
    sys::SystemConfig pod = multiRackPod();
    const double bytes = 1e8;
    const int racks = 4;
    auto r =
        net::hierarchicalTreeAllReduce(pod.topo, pod.gpu_nodes, bytes);
    const int cross = static_cast<int>(net::FabricTier::CrossRack);
    const int rack = static_cast<int>(net::FabricTier::IntraRack);
    EXPECT_NEAR(r.tier_bytes[cross], 4.0 * (racks - 1) * bytes,
                1e-6 * bytes);
    EXPECT_GT(r.tier_bytes[rack], 0.0);
    EXPECT_GT(r.nvlink_bytes, 0.0);
}

TEST(TreeAllReduce, NonGpuIsFatal)
{
    sys::SystemConfig pod = multiRackPod();
    std::vector<net::NodeId> cpu = {pod.cpu_nodes[0]};
    EXPECT_THROW(net::hierarchicalTreeAllReduce(pod.topo, cpu, 1e6),
                 FatalError);
    EXPECT_THROW(net::hierarchicalTreeAllReduce(pod.topo, {}, 1e6),
                 FatalError);
    EXPECT_THROW(net::hierarchicalRingAllReduce(pod.topo, cpu, 1e6),
                 FatalError);
    EXPECT_THROW(net::autoHierarchicalAllReduce(pod.topo, {}, 1e6),
                 FatalError);
}

// ------------------------------------------ inter-node collective

TEST(InterNodeRing, SingleNodeIsFree)
{
    // One host of a pod: nothing leaves the box.
    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 1, 4);
    auto r = net::autoHierarchicalAllReduce(pod.topo, pod.gpuSubset(8),
                                            1e9);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.eth_bytes, 0.0);
    EXPECT_DOUBLE_EQ(
        r.tier_bytes[static_cast<int>(net::FabricTier::IntraRack)], 0.0);
    EXPECT_DOUBLE_EQ(
        r.tier_bytes[static_cast<int>(net::FabricTier::CrossRack)], 0.0);
}

TEST(InterNodeRing, FasterNicIsFaster)
{
    sys::SystemConfig fast = sys::withPod(sys::dss8440(), 1, 4);
    sys::SystemConfig slow = fast;
    sys::applyDegradedLinks(slow, "eth:0.25");
    net::AllReduceParams params;
    params.buckets = 20;
    double t_fast = net::hierarchicalRingAllReduce(
                        fast.topo, fast.gpu_nodes, 4e8, params)
                        .seconds;
    double t_slow = net::hierarchicalRingAllReduce(
                        slow.topo, slow.gpu_nodes, 4e8, params)
                        .seconds;
    EXPECT_LT(t_fast, t_slow);
}

// -------------------------------------------- pod fault classes

TEST(PodFaults, PodScaleClassesFireOnPodsWithEligibleTargets)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    fault::LinkFaultModel model(
        fault::LinkFaultConfig::datacenterProfile(0.25), 7);
    auto trace = model.generate(96 * 3600.0, pod.topo);
    ASSERT_FALSE(trace.empty());

    bool saw_flap = false, saw_tor = false, saw_spine = false;
    for (const auto &ev : trace) {
        switch (ev.kind) {
          case fault::LinkFaultKind::NicFlap:
            saw_flap = true;
            ASSERT_GE(ev.edge, 0);
            EXPECT_EQ(pod.topo.link(ev.edge).kind, net::LinkKind::Eth);
            EXPECT_EQ(pod.topo.link(ev.edge).tier,
                      net::FabricTier::IntraRack);
            EXPECT_DOUBLE_EQ(ev.bandwidth_scale, 0.0);
            break;
          case fault::LinkFaultKind::TorDown:
            saw_tor = true;
            ASSERT_GE(ev.node, 0);
            EXPECT_EQ(pod.topo.kind(ev.node),
                      net::NodeKind::TorSwitch);
            EXPECT_EQ(ev.edge, -1);
            break;
          case fault::LinkFaultKind::SpineOversubscribed:
            saw_spine = true;
            EXPECT_EQ(ev.edge, -1);
            EXPECT_EQ(ev.node, -1);
            EXPECT_EQ(ev.gpu, -1);
            EXPECT_GT(ev.bandwidth_scale, 0.0);
            EXPECT_LT(ev.bandwidth_scale, 1.0);
            break;
          default:
            break;
        }
    }
    EXPECT_TRUE(saw_flap);
    EXPECT_TRUE(saw_tor);
    EXPECT_TRUE(saw_spine);
}

TEST(PodFaults, ApplySemanticsPerClass)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    net::Topology &topo = pod.topo;
    net::NodeId tor0 = topo.nodesOfKind(net::NodeKind::TorSwitch)[0];

    std::vector<fault::LinkFaultEvent> trace;
    fault::LinkFaultEvent down;
    down.kind = fault::LinkFaultKind::TorDown;
    down.start_s = 10.0;
    down.duration_s = 50.0;
    down.bandwidth_scale = 0.0;
    down.node = tor0;
    trace.push_back(down);
    fault::LinkFaultEvent spine;
    spine.kind = fault::LinkFaultKind::SpineOversubscribed;
    spine.start_s = 10.0;
    spine.duration_s = 50.0;
    spine.bandwidth_scale = 0.4;
    trace.push_back(spine);

    fault::applyLinkFaults(topo, trace, 30.0);
    for (int e : topo.incidentEdges(tor0))
        EXPECT_TRUE(topo.linkDown(e));
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (topo.link(e).tier == net::FabricTier::CrossRack) {
            EXPECT_DOUBLE_EQ(topo.linkBandwidthScale(e), 0.4);
        } else if (!topo.linkDown(e)) {
            EXPECT_DOUBLE_EQ(topo.linkBandwidthScale(e), 1.0);
        }
    }

    // Past both windows the fabric heals completely.
    fault::applyLinkFaults(topo, trace, 120.0);
    EXPECT_FALSE(topo.anyLinkDown());
    EXPECT_FALSE(topo.degraded());
}

TEST(PodFaults, EnablingPodClassesNeverPerturbsBoxClassStreams)
{
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    fault::LinkFaultConfig full =
        fault::LinkFaultConfig::datacenterProfile(0.5);
    fault::LinkFaultConfig box_only = full;
    box_only.nic_flap.mttf_hours = 0.0;
    box_only.tor_down.mttf_hours = 0.0;
    box_only.spine_oversubscribed.mttf_hours = 0.0;

    auto a = fault::LinkFaultModel(box_only, 99)
                 .generate(48 * 3600.0, pod.topo);
    auto b = fault::LinkFaultModel(full, 99)
                 .generate(48 * 3600.0, pod.topo);
    std::vector<fault::LinkFaultEvent> b_box;
    for (const auto &ev : b) {
        switch (ev.kind) {
          case fault::LinkFaultKind::NvLinkLaneDegrade:
          case fault::LinkFaultKind::PcieDowntrain:
          case fault::LinkFaultKind::LinkDown:
          case fault::LinkFaultKind::ThermalThrottle:
            b_box.push_back(ev);
            break;
          default:
            break;
        }
    }
    ASSERT_EQ(a.size(), b_box.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b_box[i].kind);
        EXPECT_DOUBLE_EQ(a[i].start_s, b_box[i].start_s);
        EXPECT_DOUBLE_EQ(a[i].duration_s, b_box[i].duration_s);
        EXPECT_DOUBLE_EQ(a[i].bandwidth_scale,
                         b_box[i].bandwidth_scale);
        EXPECT_EQ(a[i].edge, b_box[i].edge);
        EXPECT_EQ(a[i].gpu, b_box[i].gpu);
    }
}

// ------------------------------------------------- spec grammar

TEST(PodGrammar, ParsesPodSpecsAndAliases)
{
    sys::SystemConfig out;
    std::string error;
    ASSERT_TRUE(
        sys::systemFromSpec("pod(C4140 (M),4x4)", &out, &error))
        << error;
    EXPECT_EQ(out.name, "C4140 (M) pod 4x4");
    EXPECT_EQ(out.num_gpus, 64);

    ASSERT_TRUE(sys::systemFromSpec("pod(C4140 (M),2x2,spines=4)",
                                    &out, &error))
        << error;
    EXPECT_EQ(
        out.topo.nodesOfKind(net::NodeKind::SpineSwitch).size(), 4u);

    ASSERT_TRUE(sys::systemFromSpec("reference", &out, &error));
    EXPECT_EQ(out.name, sys::mlperfReference().name);
    ASSERT_TRUE(sys::systemFromSpec("DSS 8440", &out, &error));
    EXPECT_EQ(out.name, "DSS 8440");
}

TEST(PodGrammar, RejectsWithDidYouMean)
{
    sys::SystemConfig out;
    std::string error;
    EXPECT_FALSE(sys::systemFromSpec("DSS 8441", &out, &error));
    EXPECT_NE(error.find("did you mean"), std::string::npos);
    EXPECT_NE(error.find("pod(<box>"), std::string::npos);

    EXPECT_FALSE(
        sys::systemFromSpec("pod(C4140 (Z),2x2)", &out, &error));
    EXPECT_NE(error.find("did you mean"), std::string::npos);

    EXPECT_FALSE(sys::systemFromSpec("pod(C4140 (M),2x2,spine=4)",
                                     &out, &error));
    EXPECT_NE(error.find("spines"), std::string::npos);

    EXPECT_FALSE(
        sys::systemFromSpec("pod(C4140 (M),0x4)", &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(PodGrammar, ServeCatalogSharesTheCliVocabulary)
{
    serve::Catalog catalog;
    std::string serve_error;
    EXPECT_EQ(catalog.findMachine("DSS 8441", &serve_error), nullptr);
    sys::SystemConfig out;
    std::string cli_error;
    EXPECT_FALSE(sys::systemFromSpec("DSS 8441", &out, &cli_error));
    // Byte-identical diagnostics: one resolver serves both paths.
    EXPECT_EQ(serve_error, cli_error);

    const sys::SystemConfig *pod =
        catalog.findMachine("pod(C4140 (M),2x2)", &serve_error);
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->name, "C4140 (M) pod 2x2");
    EXPECT_EQ(pod->num_gpus, 16);
    // Cached: the same spec resolves to the same object.
    EXPECT_EQ(catalog.findMachine("pod(C4140 (M),2x2)", nullptr),
              pod);
}

// -------------------------------------------------- fingerprints

TEST(PodFingerprint, RackLayoutAloneChangesTheFingerprint)
{
    // Same box, same GPU count (64), different rack/node split.
    sys::SystemConfig a = sys::withPod(sys::c4140M(), 8, 2);
    sys::SystemConfig b = sys::withPod(sys::c4140M(), 4, 4);
    ASSERT_EQ(a.num_gpus, b.num_gpus);
    // Names differ by construction; equalise them so only the graph
    // distinguishes the two.
    a.name = b.name = "pod64";
    EXPECT_NE(exec::fingerprintOf(a), exec::fingerprintOf(b));
}

TEST(PodFingerprint, FabricTierAloneChangesTheFingerprint)
{
    // Two systems identical except for one link's fabric tier.
    auto build = [](net::FabricTier tier) {
        sys::SystemConfig s = sys::c4140M();
        s.name = "tiertest";
        net::NodeId a = s.topo.addNic("NIC0");
        s.topo.connect(s.cpu_nodes[0], a, net::pcie3(16));
        net::NodeId tor = s.topo.addTorSwitch("tor0");
        s.topo.connect(a, tor, net::ethernet(100.0, tier));
        return s;
    };
    sys::SystemConfig x = build(net::FabricTier::IntraRack);
    sys::SystemConfig y = build(net::FabricTier::CrossRack);
    EXPECT_NE(exec::fingerprintOf(x), exec::fingerprintOf(y));
}

TEST(PodFingerprint, SpineDegradationChangesTheFingerprint)
{
    sys::SystemConfig healthy = sys::withPod(sys::c4140M(), 2, 2);
    sys::SystemConfig degraded =
        sys::withSpineDegraded(healthy, 0.5);
    degraded.name = healthy.name;
    EXPECT_NE(exec::fingerprintOf(healthy),
              exec::fingerprintOf(degraded));
}

// ------------------------------------- scale-out across hosts

TEST(PodHostPool, EveryCatalogBoxIsOneHost)
{
    for (const sys::SystemConfig &box : sys::allMachines()) {
        net::FabricShape shape =
            net::fabricShape(box.topo, box.gpu_nodes);
        EXPECT_EQ(shape.node_groups.size(), 1u) << box.name;
        EXPECT_EQ(train::hostShare(box, box.num_gpus), 1.0) << box.name;
    }
}

TEST(PodHostPool, PartialPodCountsOnlyOccupiedHosts)
{
    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 2, 2);
    EXPECT_EQ(train::hostShare(pod, 1), 0.25);
    EXPECT_EQ(train::hostShare(pod, 8), 0.25);
    EXPECT_EQ(train::hostShare(pod, 9), 0.5);
    EXPECT_EQ(train::hostShare(pod, 32), 1.0);
}

/** Run a catalog workload on the first 'gpus' GPUs of a system. */
train::TrainResult
runOn(const sys::SystemConfig &system, const char *workload, int gpus)
{
    train::RunOptions opts;
    opts.num_gpus = gpus;
    return train::Trainer(system).run(*models::findWorkload(workload),
                                      opts);
}

TEST(MultiNode, SingleNodeMatchesTrainerPlusNoInterComm)
{
    // One occupied host of a pod is the box, bit for bit: the idle
    // hosts lend no CPUs to the input pipeline and no bytes leave
    // the host. Res50_TF is host-gated on DSS 8440, so a pod that
    // credited idle CPUs would come out faster. The DeepBench kernel
    // and collective loops pin the same CPU accounting.
    for (const sys::SystemConfig &box : sys::allMachines()) {
        for (const char *w : {"MLPf_Res50_TF", "MLPf_SSD_Py",
                              "Deep_GEMM_Cu", "Deep_Red_Cu"}) {
            train::TrainResult single = runOn(box, w, box.num_gpus);
            for (int k : {1, 2, 8}) {
                sys::SystemConfig pod = sys::withPod(box, 1, k);
                train::TrainResult r = runOn(pod, w, box.num_gpus);
                std::string where = pod.name + " / " + w;
                EXPECT_EQ(r.iter.iteration_s, single.iter.iteration_s)
                    << where;
                EXPECT_EQ(r.iter.host_s, single.iter.host_s) << where;
                EXPECT_EQ(r.iter.comm_s, single.iter.comm_s) << where;
                EXPECT_EQ(r.total_seconds, single.total_seconds)
                    << where;
                EXPECT_EQ(r.usage.cpu_util_pct,
                          single.usage.cpu_util_pct)
                    << where;
            }
        }
    }
}

/** Eight DSS 8440 hosts in two racks. */
sys::SystemConfig
dssPod()
{
    return sys::withPod(sys::dss8440(), 2, 4);
}

TEST(MultiNode, ScalableWorkloadKeepsScaling)
{
    sys::SystemConfig pod = dssPod();
    double t1 = runOn(pod, "MLPf_Res50_TF", 8).total_seconds;
    double t4 = runOn(pod, "MLPf_Res50_TF", 32).total_seconds;
    EXPECT_GT(t1 / t4, 2.0);
}

TEST(MultiNode, NcfSaturatesAcrossNodes)
{
    sys::SystemConfig pod = dssPod();
    double t1 = runOn(pod, "MLPf_NCF_Py", 8).total_seconds;
    double t8 = runOn(pod, "MLPf_NCF_Py", 64).total_seconds;
    // The batch cap + cross-host all-reduce leave no speedup.
    EXPECT_GT(t8, 0.75 * t1);
}

TEST(MultiNode, SlowNicHurtsCommHeavyWorkloads)
{
    // Every Ethernet link (NIC uplinks) at a quarter of line rate:
    // the comm-heavy Transformer loses more than ResNet-50.
    sys::SystemConfig fast = sys::withPod(sys::dss8440(), 1, 4);
    sys::SystemConfig slow = fast;
    sys::applyDegradedLinks(slow, "eth:0.25");
    double x_fast = runOn(fast, "MLPf_XFMR_Py", 32).total_seconds;
    double x_slow = runOn(slow, "MLPf_XFMR_Py", 32).total_seconds;
    EXPECT_GT(x_slow, 1.3 * x_fast);
    double r_fast = runOn(fast, "MLPf_Res50_TF", 32).total_seconds;
    double r_slow = runOn(slow, "MLPf_Res50_TF", 32).total_seconds;
    EXPECT_GT(x_slow / x_fast, r_slow / r_fast);
}

TEST(MultiNode, GlobalBatchCapDividesAcrossCluster)
{
    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 2, 2);
    auto spec = *models::findWorkload("MLPf_NCF_Py");
    auto r = runOn(pod, "MLPf_NCF_Py", 32);
    EXPECT_NEAR(r.global_batch, spec.convergence.global_batch_cap,
                spec.convergence.global_batch_cap * 0.01);
    EXPECT_NEAR(r.per_gpu_batch,
                spec.convergence.global_batch_cap / 32.0, 1.0);
}

TEST(MultiNode, ErrorsOnMisuse)
{
    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 1, 2);
    EXPECT_THROW(runOn(pod, "MLPf_SSD_Py", 24), FatalError);
    EXPECT_THROW(runOn(pod, "MLPf_SSD_Py", 0), FatalError);
    // Pods compose boxes, not pods; spine/ToR prefabs need racks.
    EXPECT_THROW(sys::withPod(pod, 2, 2), FatalError);
    EXPECT_THROW(sys::withSpineDegraded(pod, 0.5), FatalError);
    EXPECT_THROW(sys::withTorDegraded(dssPod(), 5, 0.5), FatalError);
}

/** Host-count sweep on a DSS 8440 pod. */
class MultiNodeSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MultiNodeSweepTest, IterationFiniteAndPositive)
{
    sys::SystemConfig pod = dssPod();
    int hosts = GetParam();
    auto r = runOn(pod, "MLPf_GNMT_Py", 8 * hosts);
    EXPECT_GT(r.iter.iteration_s, 0.0);
    EXPECT_TRUE(std::isfinite(r.total_seconds));
    EXPECT_EQ(net::fabricShape(pod.topo, pod.gpuSubset(8 * hosts))
                  .node_groups.size(),
              static_cast<std::size_t>(hosts));
    EXPECT_GT(r.iter.comm_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Nodes, MultiNodeSweepTest,
                         ::testing::Values(1, 2, 4, 8));

// ------------------------------------------------ route cache

TEST(RouteCache, HitCounterFeedsTheObsRegistry)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    sys::SystemConfig pod = sys::withPod(sys::c4140M(), 2, 2);
    net::NodeId a = pod.gpu_nodes.front();
    net::NodeId b = pod.gpu_nodes.back();

    ASSERT_TRUE(pod.topo.route(a, b).has_value()); // prime
    double hits_before = reg.value("net.topology.route_cache.hits");
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(pod.topo.route(a, b).has_value());
    double hits_after = reg.value("net.topology.route_cache.hits");
    EXPECT_GE(hits_after, hits_before + 5.0);

    // A link-state change invalidates: the next lookup is a miss.
    double misses_before =
        reg.value("net.topology.route_cache.misses");
    pod.topo.setLinkDown(0, true);
    ASSERT_TRUE(pod.topo.route(a, b).has_value());
    EXPECT_GE(reg.value("net.topology.route_cache.misses"),
              misses_before + 1.0);
    pod.topo.resetLinkState();
}

// ------------------------------------------- mutation stress

/**
 * 1000 random link-state mutations on a 128-GPU pod: downs (only
 * when the fabric survives them), bandwidth degradations and heals,
 * with route sanity checked each step, a full hierarchical
 * all-reduce sampled every 100 steps, and the whole history replayed
 * from the same seed expecting bit-identical timings and reroutes.
 */
TEST(PodStress, TopologyMutationStressIsDeterministic)
{
    auto episode = [](std::uint64_t seed, std::vector<double> &seconds,
                      std::vector<int> &reroutes) {
        sys::SystemConfig pod = sys::withPod(sys::c4140M(), 4, 8);
        EXPECT_EQ(pod.num_gpus, 128);
        net::Topology &topo = pod.topo;
        sim::Rng rng(seed);
        const double bytes = 8.0 * 1024 * 1024;

        for (int step = 0; step < 1000; ++step) {
            int e = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(topo.edgeCount())));
            double roll = rng.uniform();
            if (roll < 0.30) {
                // Down the edge only if the fabric survives it.
                topo.setLinkDown(e, true);
                try {
                    topo.validate();
                } catch (const FatalError &) {
                    topo.setLinkDown(e, false);
                }
            } else if (roll < 0.60) {
                topo.setLinkBandwidthScale(
                    e, 0.25 + 0.7 * rng.uniform());
            } else if (roll < 0.70) {
                topo.resetLinkState();
            } else {
                topo.setLinkDown(e, false);
            }

            // Cheap invariants every step: the surviving fabric
            // still routes between representative GPU pairs.
            net::NodeId a = pod.gpu_nodes[rng.below(128)];
            net::NodeId b = pod.gpu_nodes[rng.below(128)];
            auto p = topo.route(a, b);
            ASSERT_TRUE(p.has_value())
                << "step " << step << ": fabric disconnected";
            for (int edge : p->edges)
                ASSERT_FALSE(topo.linkDown(edge))
                    << "step " << step << ": routed over a down link";

            if (step % 100 == 99) {
                net::AllReduceResult r =
                    net::autoHierarchicalAllReduce(
                        topo, pod.gpu_nodes, bytes);
                ASSERT_GT(r.seconds, 0.0) << "step " << step;
                seconds.push_back(r.seconds);
                reroutes.push_back(r.reroutes);
            }
        }
    };

    std::vector<double> sec_a, sec_b;
    std::vector<int> rr_a, rr_b;
    episode(2026, sec_a, rr_a);
    episode(2026, sec_b, rr_b);
    ASSERT_EQ(sec_a.size(), 10u);
    ASSERT_EQ(sec_a.size(), sec_b.size());
    for (std::size_t i = 0; i < sec_a.size(); ++i) {
        EXPECT_EQ(sec_a[i], sec_b[i]) << "sample " << i;
        EXPECT_EQ(rr_a[i], rr_b[i]) << "sample " << i;
    }
}

} // namespace
