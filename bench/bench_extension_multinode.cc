/**
 * @file
 * Extension beyond the paper: multi-node scaling. The paper confined
 * itself to one machine (and dropped DeepBench's MPI all-reduce);
 * this bench carries the Section IV-D scaling question across the
 * hosts of a DSS 8440 pod (4 racks x 2 hosts, 8 GPUs per host) and
 * across degraded network tiers — showing which workloads keep
 * scaling past a chassis and how much the network tier matters.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "sys/machines.h"
#include "train/trainer.h"

namespace {

using namespace mlps;

train::TrainResult
runOn(const sys::SystemConfig &system, const wl::WorkloadSpec &spec,
      int gpus)
{
    train::RunOptions opts;
    opts.num_gpus = gpus;
    return train::Trainer(system).run(spec, opts);
}

} // namespace

int
main()
{
    const std::vector<std::string> workloads = {
        "MLPf_Res50_TF", "MLPf_XFMR_Py", "MLPf_NCF_Py",
    };
    const int host_counts[] = {1, 2, 4, 8};

    sys::SystemConfig pod = sys::withPod(sys::dss8440(), 4, 2);
    const int per_host = sys::dss8440().num_gpus;
    std::printf("Multi-node scaling on %s (%d GPUs/host)\n\n",
                pod.name.c_str(), per_host);
    std::printf("%-15s %10s", "workload", "1 host");
    for (int h : {2, 4, 8})
        std::printf(" %9d-host", h);
    std::printf("   (speedup over 1 host)\n");

    for (const auto &name : workloads) {
        auto spec = *models::findWorkload(name);
        std::printf("%-15s", name.c_str());
        double base = 0.0;
        std::string speedups;
        for (int h : host_counts) {
            auto r = runOn(pod, spec, h * per_host);
            if (h == 1)
                base = r.total_seconds;
            std::printf(" %8.1f min", r.totalMinutes());
            if (h > 1) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), " %.2fx",
                              base / r.total_seconds);
                speedups += buf;
            }
        }
        std::printf("  %s\n", speedups.c_str());
    }

    std::printf("\nNetwork tier sensitivity (4 hosts over 2 racks, "
                "Transformer):\n");
    auto spec = *models::findWorkload("MLPf_XFMR_Py");
    struct Case {
        const char *label;
        sys::SystemConfig sys;
    };
    const Case cases[] = {
        {"healthy", pod},
        {"tor 0 at x0.25", sys::withTorDegraded(pod, 0, 0.25)},
        {"spine at x0.5", sys::withSpineDegraded(pod, 0.5)},
        {"spine at x0.25", sys::withSpineDegraded(pod, 0.25)},
        {"spine at x0.05", sys::withSpineDegraded(pod, 0.05)},
    };
    for (const Case &c : cases) {
        auto r = runOn(c.sys, spec, 4 * per_host);
        std::printf("  %-15s %8.1f min  (all-reduce %6.1f ms/iter)\n",
                    c.label, r.totalMinutes(), r.iter.comm_s * 1e3);
    }

    std::printf("\nTakeaway: the scaling diversity of Table IV "
                "amplifies across hosts — NCF gains nothing past one "
                "chassis while ResNet-50 keeps scaling on a healthy "
                "fabric; one slow ToR paces the ring like a slow "
                "spine.\n");
    return 0;
}
