#include "train/pipeline.h"

#include <algorithm>
#include <vector>

#include "sim/logger.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace mlps::train {

using sim::SimTime;

PipelineResult
simulatePipeline(const PipelineStages &stages, int iterations,
                 std::uint64_t seed)
{
    if (iterations < 2)
        sim::fatal("simulatePipeline: need >= 2 iterations");
    if (stages.prefetch_depth < 1)
        sim::fatal("simulatePipeline: prefetch depth must be >= 1");
    if (stages.host_s < 0 || stages.h2d_s < 0 || stages.gpu_s < 0)
        sim::fatal("simulatePipeline: negative stage time");

    sim::Rng rng(seed);
    auto duration = [&](double stage_s) {
        double jitter = stages.jitter_sigma > 0.0
                            ? rng.lognormalNoise(stages.jitter_sigma)
                            : 1.0;
        return sim::fromSeconds(stage_s * jitter);
    };

    // Tandem-queue recurrence over batches: each stage serves batches
    // in order, one at a time, and the host may run at most
    // prefetch_depth batches ahead of the GPU's consumption.
    const int depth = stages.prefetch_depth;
    std::vector<SimTime> gpu_start(iterations), gpu_end(iterations);
    SimTime host_end = 0, h2d_end = 0, gpu_stall = 0, host_block = 0;
    for (int b = 0; b < iterations; ++b) {
        SimTime host_start =
            b < depth ? host_end : std::max(host_end, gpu_start[b - depth]);
        host_block += host_start - host_end;
        host_end = host_start + duration(stages.host_s);
        SimTime h2d_start = std::max(host_end, h2d_end);
        h2d_end = h2d_start + duration(stages.h2d_s);
        gpu_start[b] = b == 0 ? h2d_end : std::max(h2d_end, gpu_end[b - 1]);
        if (b > 0)
            gpu_stall += gpu_start[b] - gpu_end[b - 1];
        gpu_end[b] = gpu_start[b] + duration(stages.gpu_s);
    }

    PipelineResult res;
    res.makespan_s = sim::toSeconds(gpu_end.back());
    res.gpu_stall_s = sim::toSeconds(gpu_stall);
    res.host_block_s = sim::toSeconds(host_block);
    // Steady state: regress out the warm-up using the second half of
    // the run.
    int half = iterations / 2;
    res.steady_iteration_s =
        sim::toSeconds(gpu_end.back() - gpu_end[half - 1]) /
        (iterations - half);
    return res;
}

double
analyticIteration(const PipelineStages &stages)
{
    return std::max({stages.host_s, stages.h2d_s, stages.gpu_s});
}

} // namespace mlps::train
