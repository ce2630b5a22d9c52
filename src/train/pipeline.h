/**
 * @file
 * Batch-level oracle for the training input pipeline.
 *
 * The steady-state analytic model (Trainer) assumes a perfectly
 * software-pipelined iteration: time = max(host, h2d, gpu). This
 * module plays the actual producer/consumer pipeline with a bounded
 * prefetch queue, batch by batch, as a tandem-queue (max-plus)
 * recurrence in SimTime ticks:
 *
 *   host_start[b] = max(host_end[b-1], gpu_start[b-depth])
 *   h2d_start[b]  = max(host_end[b], h2d_end[b-1])
 *   gpu_start[b]  = max(h2d_end[b], gpu_end[b-1])
 *
 * It captures warm-up transients, buffer stalls and jittered stage
 * times. It is test and ablation code, not a production path: it
 * validates the analytic assumption (they agree in steady state) and
 * quantifies when it breaks (shallow prefetch queues, high jitter).
 */

#ifndef MLPSIM_TRAIN_PIPELINE_H
#define MLPSIM_TRAIN_PIPELINE_H

#include <cstdint>

namespace mlps::train {

/** Stage durations and queueing structure of the pipeline. */
struct PipelineStages {
    /** Host preprocessing time per batch, seconds. */
    double host_s = 0.0;
    /** Host-to-device copy time per batch, seconds. */
    double h2d_s = 0.0;
    /** GPU compute (+ exposed collective + overhead) per batch, s. */
    double gpu_s = 0.0;
    /**
     * Prefetch depth: batches the host may run ahead of the GPU
     * (framework data-loader queue length). Depth 1 serialises the
     * stages; typical frameworks use 2-4.
     */
    int prefetch_depth = 2;
    /**
     * Log-normal sigma of per-batch stage jitter (0 = deterministic).
     */
    double jitter_sigma = 0.0;
};

/** Outcome of a pipeline simulation. */
struct PipelineResult {
    /** Total time to finish all batches, seconds. */
    double makespan_s = 0.0;
    /** Steady-state per-iteration time (excluding warm-up), s. */
    double steady_iteration_s = 0.0;
    /** Time the GPU spent idle waiting for input, seconds. */
    double gpu_stall_s = 0.0;
    /** Time the host spent blocked on a full prefetch queue, s. */
    double host_block_s = 0.0;
};

/**
 * Simulate `iterations` batches through the three-stage pipeline.
 *
 * @param stages stage model.
 * @param iterations batch count (>= 2).
 * @param seed RNG seed for jitter (ignored when jitter_sigma == 0).
 *        Jitter draws run in batch order: host, h2d, then GPU.
 */
PipelineResult simulatePipeline(const PipelineStages &stages,
                                int iterations,
                                std::uint64_t seed = 1);

/** The analytic steady-state prediction: max of the stage times. */
double analyticIteration(const PipelineStages &stages);

} // namespace mlps::train

#endif // MLPSIM_TRAIN_PIPELINE_H
