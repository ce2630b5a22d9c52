/**
 * @file
 * Randomized property tests for the interconnect layer: routing
 * invariants on random connected topologies, flow-simulator byte
 * conservation and rate bounds, and all-reduce consistency across
 * the hierarchical algorithms on random multi-rack pods.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/allreduce.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/transfer.h"
#include "sim/logger.h"
#include "sim/rng.h"

namespace {

using namespace mlps::net;

/** Random connected machine graph: CPUs, switches, GPUs. */
Topology
randomTopology(mlps::sim::Rng &rng, int &gpu_count)
{
    Topology topo;
    int cpus = 1 + static_cast<int>(rng.below(3));
    int switches = static_cast<int>(rng.below(3));
    gpu_count = 2 + static_cast<int>(rng.below(6));

    std::vector<NodeId> attach; // nodes a GPU/switch can hang off
    for (int i = 0; i < cpus; ++i) {
        NodeId c = topo.addCpu("CPU" + std::to_string(i));
        if (i > 0)
            topo.connect(c, attach[i - 1], upi());
        attach.push_back(c);
    }
    for (int i = 0; i < switches; ++i) {
        NodeId s = topo.addSwitch("SW" + std::to_string(i));
        topo.connect(s, attach[rng.below(attach.size())], pcie3(16));
        attach.push_back(s);
    }
    for (int i = 0; i < gpu_count; ++i) {
        NodeId g = topo.addGpu("GPU" + std::to_string(i));
        topo.connect(g, attach[rng.below(attach.size())],
                     pcie3(8 + 8 * static_cast<int>(rng.below(2))));
        // Sometimes add NVLink pairs between recent GPUs.
        if (i > 0 && rng.chance(0.3)) {
            topo.connect(g, topo.gpus()[rng.below(i)],
                         nvlink(1 + static_cast<int>(rng.below(2))));
        }
    }
    return topo;
}

/** True when every node can still reach every other over up links. */
bool
stillConnected(Topology &topo)
{
    try {
        topo.validate();
        return true;
    } catch (const mlps::sim::FatalError &) {
        return false;
    }
}

/**
 * Take edge `e` down only if the graph survives it; returns whether
 * the edge is now down. Keeps random fault injection from wedging a
 * test on a bridge edge.
 */
bool
downIfSurvivable(Topology &topo, int e)
{
    topo.setLinkDown(e, true);
    if (stillConnected(topo))
        return true;
    topo.setLinkDown(e, false);
    return false;
}

class RandomTopologyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomTopologyTest, RoutesAreValidPaths)
{
    mlps::sim::Rng rng(1000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = 0; b < topo.nodeCount(); ++b) {
            auto path = topo.route(a, b);
            ASSERT_TRUE(path.has_value()); // construction is connected
            ASSERT_EQ(path->nodes.front(), a);
            ASSERT_EQ(path->nodes.back(), b);
            ASSERT_EQ(path->nodes.size(), path->edges.size() + 1);
            // Each edge joins consecutive nodes.
            for (std::size_t i = 0; i < path->edges.size(); ++i) {
                auto [x, y] = topo.endpoints(path->edges[i]);
                bool forward = x == path->nodes[i] &&
                               y == path->nodes[i + 1];
                bool backward = y == path->nodes[i] &&
                                x == path->nodes[i + 1];
                ASSERT_TRUE(forward || backward);
            }
        }
    }
}

TEST_P(RandomTopologyTest, RouteHopCountSymmetric)
{
    mlps::sim::Rng rng(2000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = a + 1; b < topo.nodeCount(); ++b) {
            auto ab = topo.route(a, b);
            auto ba = topo.route(b, a);
            ASSERT_TRUE(ab && ba);
            EXPECT_EQ(ab->hops(), ba->hops());
        }
    }
}

TEST_P(RandomTopologyTest, FlowBytesConserved)
{
    mlps::sim::Rng rng(3000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    FlowSimulator fsim(topo);
    double expected_total = 0.0;
    std::vector<double> path_hops;
    int flows = 3 + static_cast<int>(rng.below(5));
    for (int i = 0; i < flows; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from == to)
            continue;
        double bytes = rng.uniform(1e6, 5e8);
        fsim.addFlow(from, to, bytes);
        expected_total += bytes * topo.route(from, to)->hops();
    }
    fsim.run();
    double link_total = 0.0;
    for (const auto &lt : fsim.linkTraffic())
        link_total += lt.bytes;
    EXPECT_NEAR(link_total, expected_total,
                std::max(1.0, expected_total * 1e-6));
}

TEST_P(RandomTopologyTest, FlowsFinishAndRespectLinkRates)
{
    mlps::sim::Rng rng(4000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    FlowSimulator fsim(topo);
    int added = 0;
    for (int i = 0; i < 6; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from == to)
            continue;
        fsim.addFlow(from, to, rng.uniform(1e6, 1e8),
                     rng.uniform(0.0, 0.01));
        ++added;
    }
    if (added == 0)
        GTEST_SKIP();
    double makespan = fsim.run();
    EXPECT_GT(makespan, 0.0);
    for (const auto &rep : fsim.reports()) {
        EXPECT_GE(rep.finish_s, rep.start_s);
        // No flow beats its own bottleneck-bandwidth lower bound.
        EXPECT_LE(rep.throughput(),
                  pcie3(16).effectiveBytesPerSec() * 10.0);
    }
}

/** Random multi-rack pod whose hosts are copies of one random box. */
PodTopology
randomPod(mlps::sim::Rng &rng)
{
    PodShape shape;
    shape.racks = 2 + static_cast<int>(rng.below(3));
    shape.nodes_per_rack = 1 + static_cast<int>(rng.below(2));
    shape.spines = 1 + static_cast<int>(rng.below(2));
    int cpus = 1 + static_cast<int>(rng.below(2));
    int gpus = 1 + static_cast<int>(rng.below(4));
    bool with_nvlink = rng.chance(0.5);
    LeafBuilder leaf = [=](Topology &topo, const std::string &prefix) {
        LeafNodes nodes;
        for (int i = 0; i < cpus; ++i) {
            nodes.cpus.push_back(
                topo.addCpu(prefix + "CPU" + std::to_string(i)));
            if (i > 0)
                topo.connect(nodes.cpus[i - 1], nodes.cpus[i], upi());
        }
        for (int g = 0; g < gpus; ++g) {
            nodes.gpus.push_back(
                topo.addGpu(prefix + "GPU" + std::to_string(g)));
            topo.connect(nodes.cpus[g % cpus], nodes.gpus[g], pcie3(16));
            if (with_nvlink && g > 0)
                topo.connect(nodes.gpus[g - 1], nodes.gpus[g], nvlink(2));
        }
        return nodes;
    };
    return buildPodTopology(shape, leaf);
}

TEST_P(RandomTopologyTest, AllReduceAlgorithmsAgreeOnFabric)
{
    mlps::sim::Rng rng(5000 + GetParam());
    PodTopology pod = randomPod(rng);
    double bytes = rng.uniform(1e6, 3e8);
    AllReduceParams params;
    params.buckets = 1 + static_cast<int>(rng.below(100));
    auto ring =
        hierarchicalRingAllReduce(pod.topo, pod.gpus, bytes, params);
    auto tree =
        hierarchicalTreeAllReduce(pod.topo, pod.gpus, bytes, params);
    EXPECT_EQ(ring.fabric, tree.fabric);
    EXPECT_GT(ring.seconds, 0.0);
    EXPECT_GT(tree.seconds, 0.0);
    auto chosen =
        autoHierarchicalAllReduce(pod.topo, pod.gpus, bytes, params);
    EXPECT_EQ(chosen.seconds, std::min(ring.seconds, tree.seconds));
    // Both algorithms conserve bytes: per-tier and per-kind totals
    // are two partitions of the same traffic.
    for (const AllReduceResult &r : {ring, tree}) {
        double kinds =
            r.nvlink_bytes + r.pcie_bytes + r.upi_bytes + r.eth_bytes;
        double tiers = 0.0;
        for (int t = 0; t < kNumFabricTiers; ++t)
            tiers += r.tier_bytes[t];
        EXPECT_NEAR(kinds, tiers, 1e-9 * kinds);
        EXPECT_GT(r.tier_bytes[static_cast<int>(FabricTier::CrossRack)],
                  0.0);
    }
}

TEST_P(RandomTopologyTest, AllReduceScalesWithPayload)
{
    mlps::sim::Rng rng(6000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();
    double t1 = ringAllReduce(topo, gpu_nodes, 1e7).seconds;
    double t10 = ringAllReduce(topo, gpu_nodes, 1e8).seconds;
    EXPECT_GT(t10, t1);
    // Bandwidth term dominates at 10x payload: at most ~10x slower.
    EXPECT_LT(t10, 10.5 * t1);
}

TEST_P(RandomTopologyTest, NoRouteEverCrossesDownLink)
{
    mlps::sim::Rng rng(7000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    // Down a random subset of survivable edges.
    int downed = 0;
    for (int e = 0; e < topo.edgeCount(); ++e) {
        if (rng.chance(0.3) && downIfSurvivable(topo, e))
            ++downed;
    }
    for (int a = 0; a < topo.nodeCount(); ++a) {
        for (int b = 0; b < topo.nodeCount(); ++b) {
            auto path = topo.route(a, b);
            ASSERT_TRUE(path.has_value()); // only survivable downs
            for (int e : path->edges)
                ASSERT_FALSE(topo.linkDown(e))
                    << "route " << topo.name(a) << "->" << topo.name(b)
                    << " crosses down link " << e << " (" << downed
                    << " links down)";
        }
    }
}

TEST_P(RandomTopologyTest, BandwidthReductionNeverSpeedsAllReduce)
{
    mlps::sim::Rng rng(8000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();
    double bytes = rng.uniform(1e6, 3e8);
    double healthy = ringAllReduce(topo, gpu_nodes, bytes).seconds;

    // Degrade one random link at a time; modeled time must never
    // improve. Then stack degradations cumulatively: still monotone.
    double prev = healthy;
    for (int step = 0; step < 8; ++step) {
        int e = static_cast<int>(rng.below(topo.edgeCount()));
        double scale = rng.uniform(0.05, 0.95);
        topo.setLinkBandwidthScale(
            e, topo.linkBandwidthScale(e) * scale);
        double degraded = ringAllReduce(topo, gpu_nodes, bytes).seconds;
        EXPECT_GE(degraded, prev - 1e-12)
            << "scaling link " << e << " by " << scale
            << " made all-reduce faster";
        prev = degraded;
    }
    topo.resetLinkState();
    EXPECT_NEAR(ringAllReduce(topo, gpu_nodes, bytes).seconds, healthy,
                healthy * 1e-12);
}

TEST_P(RandomTopologyTest, ReroutePreservesTotalBytesMoved)
{
    mlps::sim::Rng rng(9000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    auto gpu_nodes = topo.gpus();

    // Pick flows up front so healthy and degraded runs move the same
    // payloads.
    struct Want { NodeId from; NodeId to; double bytes; };
    std::vector<Want> wants;
    for (int i = 0; i < 6; ++i) {
        NodeId from = gpu_nodes[rng.below(gpu_nodes.size())];
        NodeId to = gpu_nodes[rng.below(gpu_nodes.size())];
        if (from != to)
            wants.push_back({from, to, rng.uniform(1e6, 2e8)});
    }
    if (wants.empty())
        GTEST_SKIP() << "no distinct GPU pairs drawn";

    auto runAndCheck = [&](const char *label) {
        FlowSimulator fsim(topo);
        double expected_total = 0.0;
        for (const Want &w : wants) {
            fsim.addFlow(w.from, w.to, w.bytes);
            expected_total += w.bytes * topo.route(w.from, w.to)->hops();
        }
        fsim.run();
        double link_total = 0.0;
        for (const auto &lt : fsim.linkTraffic())
            link_total += lt.bytes;
        EXPECT_NEAR(link_total, expected_total,
                    std::max(1.0, expected_total * 1e-6))
            << label;
        // Every flow delivers its full payload regardless of routing.
        for (std::size_t i = 0; i < fsim.reports().size(); ++i)
            EXPECT_NEAR(fsim.reports()[i].bytes, wants[i].bytes, 1.0)
                << label;
    };

    runAndCheck("healthy fabric");
    int downed = 0;
    for (int e = 0; e < topo.edgeCount() && downed < 2; ++e) {
        if (rng.chance(0.4) && downIfSurvivable(topo, e))
            ++downed;
    }
    runAndCheck("degraded fabric");
}

TEST_P(RandomTopologyTest, TopologyMutationStressKeepsValidateGreen)
{
    mlps::sim::Rng rng(10000 + GetParam());
    int gpus = 0;
    Topology topo = randomTopology(rng, gpus);
    std::uint64_t last_epoch = topo.epoch();
    for (int step = 0; step < 1000; ++step) {
        int e = static_cast<int>(rng.below(topo.edgeCount()));
        switch (rng.below(3)) {
          case 0:
            // Down only when the fabric survives; a real operator
            // cordons a bridge link instead of cutting it.
            downIfSurvivable(topo, e);
            break;
          case 1: // heal
            topo.setLinkDown(e, false);
            topo.setLinkBandwidthScale(e, 1.0);
            break;
          default: // degrade bandwidth
            topo.setLinkBandwidthScale(e, rng.uniform(0.05, 1.0));
            break;
        }
        ASSERT_NO_THROW(topo.validate()) << "after step " << step;
        // Epochs only move forward, and only on real state changes.
        ASSERT_GE(topo.epoch(), last_epoch);
        last_epoch = topo.epoch();
    }
    topo.resetLinkState();
    ASSERT_NO_THROW(topo.validate());
    EXPECT_FALSE(topo.degraded());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Range(0, 10));

} // namespace
