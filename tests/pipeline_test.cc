/**
 * @file
 * Tests for the batch-level pipeline oracle, including its
 * agreement with the analytic steady-state model the Trainer uses.
 */

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/pipeline.h"
#include "train/trainer.h"

namespace {

using namespace mlps::train;
using mlps::sim::FatalError;

TEST(Pipeline, GpuBoundSteadyState)
{
    PipelineStages st;
    st.host_s = 0.01;
    st.h2d_s = 0.005;
    st.gpu_s = 0.1;
    auto r = simulatePipeline(st, 100);
    EXPECT_NEAR(r.steady_iteration_s, 0.1, 1e-6);
    // GPU never starves once warmed up; host blocks on the queue.
    EXPECT_LT(r.gpu_stall_s, 0.05);
    EXPECT_GT(r.host_block_s, 0.0);
}

TEST(Pipeline, HostBoundSteadyState)
{
    PipelineStages st;
    st.host_s = 0.2;
    st.h2d_s = 0.01;
    st.gpu_s = 0.05;
    auto r = simulatePipeline(st, 100);
    EXPECT_NEAR(r.steady_iteration_s, 0.2, 1e-6);
    // The GPU starves while the host produces.
    EXPECT_GT(r.gpu_stall_s, 1.0);
}

TEST(Pipeline, H2dBoundSteadyState)
{
    PipelineStages st;
    st.host_s = 0.01;
    st.h2d_s = 0.3;
    st.gpu_s = 0.05;
    auto r = simulatePipeline(st, 60);
    EXPECT_NEAR(r.steady_iteration_s, 0.3, 1e-6);
}

TEST(Pipeline, MatchesAnalyticAcrossMixes)
{
    // For any stage mix with depth >= 2 and no jitter, steady state
    // equals max(stages) — the Trainer's assumption.
    const double stage_sets[][3] = {
        {0.1, 0.1, 0.1},   {0.05, 0.2, 0.1}, {0.3, 0.05, 0.1},
        {0.02, 0.02, 0.5}, {0.15, 0.1, 0.12},
    };
    for (const auto &s : stage_sets) {
        PipelineStages st;
        st.host_s = s[0];
        st.h2d_s = s[1];
        st.gpu_s = s[2];
        auto r = simulatePipeline(st, 200);
        EXPECT_NEAR(r.steady_iteration_s, analyticIteration(st),
                    analyticIteration(st) * 0.01)
            << s[0] << "/" << s[1] << "/" << s[2];
    }
}

TEST(Pipeline, DeterministicOutputsArePinned)
{
    // Exact outputs for the stage mixes above at depths 1-4, recorded
    // from the event-queue simulation the recurrence replaced.
    // Deterministic stages must reproduce them bit for bit.
    const double stage_sets[][3] = {
        {0.1, 0.1, 0.1},   {0.05, 0.2, 0.1}, {0.3, 0.05, 0.1},
        {0.02, 0.02, 0.5}, {0.15, 0.1, 0.12},
    };
    // {makespan_s, steady_iteration_s, gpu_stall_s, host_block_s}
    const double pinned[][4] = {
        {40.100000000000001, 0.20000000000000001,
         19.899999999999999, 19.899999999999999},
        {20.199999999999999, 0.10000000000000001, 0, 0},
        {20.199999999999999, 0.10000000000000001, 0, 0},
        {20.199999999999999, 0.10000000000000001, 0, 0},
        {50.100000000000001, 0.25, 29.850000000000001, 39.799999999999997},
        {40.149999999999999, 0.20000000000000001,
         19.899999999999999, 29.699999999999999},
        {40.149999999999999, 0.20000000000000001, 19.899999999999999, 29.5},
        {40.149999999999999, 0.20000000000000001,
         19.899999999999999, 29.300000000000001},
        {70.099999999999994, 0.34999999999999998, 49.75, 9.9499999999999993},
        {60.149999999999999, 0.29999999999999999, 39.799999999999997, 0},
        {60.149999999999999, 0.29999999999999999, 39.799999999999997, 0},
        {60.149999999999999, 0.29999999999999999, 39.799999999999997, 0},
        {100.04000000000001, 0.5, 0, 95.060000000000002},
        {100.04000000000001, 0.5, 0, 94.560000000000002},
        {100.04000000000001, 0.5, 0, 94.060000000000002},
        {100.04000000000001, 0.5, 0, 93.560000000000002},
        {50.119999999999997, 0.25, 25.870000000000001, 19.899999999999999},
        {30.219999999999999, 0.14999999999999999, 5.9699999999999998, 0},
        {30.219999999999999, 0.14999999999999999, 5.9699999999999998, 0},
        {30.219999999999999, 0.14999999999999999, 5.9699999999999998, 0},
    };
    int row = 0;
    for (const auto &s : stage_sets) {
        for (int depth = 1; depth <= 4; ++depth, ++row) {
            PipelineStages st;
            st.host_s = s[0];
            st.h2d_s = s[1];
            st.gpu_s = s[2];
            st.prefetch_depth = depth;
            auto r = simulatePipeline(st, 200);
            SCOPED_TRACE(::testing::Message()
                         << s[0] << "/" << s[1] << "/" << s[2]
                         << " depth " << depth);
            EXPECT_EQ(r.makespan_s, pinned[row][0]);
            EXPECT_EQ(r.steady_iteration_s, pinned[row][1]);
            EXPECT_EQ(r.gpu_stall_s, pinned[row][2]);
            EXPECT_EQ(r.host_block_s, pinned[row][3]);
        }
    }
}

TEST(Pipeline, DepthOneSerialises)
{
    // With no prefetch the stages serialise whenever host+h2d is not
    // hidden: iteration approaches host + h2d + gpu.
    PipelineStages st;
    st.host_s = 0.1;
    st.h2d_s = 0.05;
    st.gpu_s = 0.1;
    st.prefetch_depth = 1;
    auto r = simulatePipeline(st, 100);
    EXPECT_GT(r.steady_iteration_s, analyticIteration(st) * 1.3);
    // Deep prefetch restores the pipelined bound.
    st.prefetch_depth = 4;
    auto deep = simulatePipeline(st, 100);
    EXPECT_NEAR(deep.steady_iteration_s, analyticIteration(st),
                analyticIteration(st) * 0.02);
}

TEST(Pipeline, JitterDegradesThroughput)
{
    PipelineStages st;
    st.host_s = 0.1;
    st.h2d_s = 0.02;
    st.gpu_s = 0.1; // balanced stages are jitter-sensitive
    auto clean = simulatePipeline(st, 400);
    st.jitter_sigma = 0.3;
    auto noisy = simulatePipeline(st, 400, 7);
    EXPECT_GT(noisy.steady_iteration_s, clean.steady_iteration_s);
}

TEST(Pipeline, JitterDeterministicBySeed)
{
    PipelineStages st;
    st.host_s = 0.05;
    st.h2d_s = 0.02;
    st.gpu_s = 0.06;
    st.jitter_sigma = 0.2;
    auto a = simulatePipeline(st, 100, 42);
    auto b = simulatePipeline(st, 100, 42);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(Pipeline, MakespanBounds)
{
    PipelineStages st;
    st.host_s = 0.03;
    st.h2d_s = 0.01;
    st.gpu_s = 0.07;
    int n = 50;
    auto r = simulatePipeline(st, n);
    // At least the GPU-serial lower bound; at most fully serial.
    EXPECT_GE(r.makespan_s, n * st.gpu_s - 1e-9);
    EXPECT_LE(r.makespan_s,
              n * (st.host_s + st.h2d_s + st.gpu_s) + 1e-9);
}

TEST(Pipeline, InvalidInputsFatal)
{
    PipelineStages st;
    EXPECT_THROW(simulatePipeline(st, 1), FatalError);
    st.prefetch_depth = 0;
    EXPECT_THROW(simulatePipeline(st, 10), FatalError);
    st.prefetch_depth = 2;
    st.gpu_s = -1.0;
    EXPECT_THROW(simulatePipeline(st, 10), FatalError);
}

TEST(Pipeline, ValidatesTrainerIterationForRealWorkload)
{
    // Feed the Trainer's modeled stage times through the oracle: the
    // steady-state iteration must match the analytic pipelined max.
    mlps::sys::SystemConfig dss = mlps::sys::dss8440();
    Trainer trainer(dss);
    auto spec = *mlps::models::findWorkload("MLPf_Res50_MX");
    RunOptions opts;
    opts.num_gpus = 4;
    auto result = trainer.run(spec, opts);

    PipelineStages st;
    st.host_s = result.iter.host_s;
    st.h2d_s = result.iter.h2d_s;
    st.gpu_s = result.iter.gpu_busy_s + result.iter.overhead_s;
    auto oracle = simulatePipeline(st, 300);
    EXPECT_NEAR(oracle.steady_iteration_s, result.iter.iteration_s,
                result.iter.iteration_s * 0.02);
}

/** Depth sweep: throughput is monotone in prefetch depth. */
class PipelineDepthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineDepthTest, DeeperNeverSlower)
{
    PipelineStages st;
    st.host_s = 0.08;
    st.h2d_s = 0.04;
    st.gpu_s = 0.09;
    st.prefetch_depth = GetParam();
    auto shallow = simulatePipeline(st, 200);
    st.prefetch_depth = GetParam() + 1;
    auto deeper = simulatePipeline(st, 200);
    EXPECT_LE(deeper.steady_iteration_s,
              shallow.steady_iteration_s + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepthTest,
                         ::testing::Values(1, 2, 3, 4));

} // namespace
