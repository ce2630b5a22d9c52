/**
 * @file
 * Ablation: the analytic steady-state iteration model (used by the
 * Trainer) against the batch-level pipeline oracle — across
 * the MLPerf workloads, prefetch depths and stage-time jitter. Backs
 * DESIGN.md's "software-pipelined max of stages" assumption with an
 * executable check and shows where it breaks.
 */

#include <cstdio>

#include "models/zoo.h"
#include "sys/machines.h"
#include "train/pipeline.h"
#include "train/trainer.h"

int
main()
{
    using namespace mlps;

    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);

    std::printf("Analytic vs pipeline-oracle iteration time "
                "(%s, 4 GPUs, depth 2, no jitter)\n\n",
                dss.name.c_str());
    std::printf("%-15s %12s %12s %8s %12s %12s\n", "workload",
                "analytic ms", "oracle ms", "error", "gpu stall s",
                "host block s");
    for (const auto &spec : models::mlperfSuite()) {
        train::RunOptions opts;
        opts.num_gpus = 4;
        auto r = trainer.run(spec, opts);

        train::PipelineStages st;
        st.host_s = r.iter.host_s;
        st.h2d_s = r.iter.h2d_s;
        st.gpu_s = r.iter.gpu_busy_s + r.iter.overhead_s;
        auto oracle = train::simulatePipeline(st, 400);
        std::printf("%-15s %12.2f %12.2f %7.2f%% %12.2f %12.2f\n",
                    spec.abbrev.c_str(), r.iter.iteration_s * 1e3,
                    oracle.steady_iteration_s * 1e3,
                    100.0 * (oracle.steady_iteration_s -
                             r.iter.iteration_s) /
                        r.iter.iteration_s,
                    oracle.gpu_stall_s, oracle.host_block_s);
    }

    // Where the assumption breaks: shallow prefetch and jitter.
    auto spec = *models::findWorkload("MLPf_Res50_TF");
    train::RunOptions opts;
    opts.num_gpus = 8;
    auto r = trainer.run(spec, opts);
    train::PipelineStages st;
    st.host_s = r.iter.host_s;
    st.h2d_s = r.iter.h2d_s;
    st.gpu_s = r.iter.gpu_busy_s + r.iter.overhead_s;

    std::printf("\nRes50_TF @8 GPUs (host-bound): prefetch depth "
                "sweep\n");
    for (int depth : {1, 2, 3, 4}) {
        train::PipelineStages s = st;
        s.prefetch_depth = depth;
        auto oracle = train::simulatePipeline(s, 400);
        std::printf("  depth %d: %7.2f ms (analytic %7.2f)\n", depth,
                    oracle.steady_iteration_s * 1e3,
                    train::analyticIteration(s) * 1e3);
    }

    std::printf("\nStage-time jitter sweep (lognormal sigma)\n");
    for (double sigma : {0.0, 0.1, 0.2, 0.4}) {
        train::PipelineStages s = st;
        s.jitter_sigma = sigma;
        auto oracle = train::simulatePipeline(s, 1000, 99);
        std::printf("  sigma %.1f: %7.2f ms (+%4.1f%% over "
                    "deterministic)\n", sigma,
                    oracle.steady_iteration_s * 1e3,
                    100.0 * (oracle.steady_iteration_s /
                                 train::analyticIteration(s) -
                             1.0));
    }
    return 0;
}
