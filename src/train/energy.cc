#include "train/energy.h"

#include <algorithm>

#include "sim/logger.h"
#include "train/trainer.h"

namespace mlps::train {

EnergyReport
estimateEnergy(const sys::SystemConfig &system,
               const TrainResult &result,
               const PowerModelParams &params)
{
    if (result.total_seconds <= 0.0)
        sim::fatal("estimateEnergy: run has no duration");

    double hours = result.total_seconds / 3600.0;

    // Active GPUs at their modeled utilization; unused GPUs idle.
    double per_gpu_util = std::clamp(
        result.usage.gpu_util_pct_sum / (100.0 * result.num_gpus), 0.0,
        1.0);
    double gpu_watts =
        result.num_gpus * system.gpu.powerWatts(per_gpu_util);
    if (params.charge_idle_gpus) {
        gpu_watts += (system.num_gpus - result.num_gpus) *
                     system.gpu.idle_watts;
    }

    double cpu_util =
        std::clamp(result.usage.cpu_util_pct / 100.0, 0.0, 1.0);
    // cpu_util covers the hosts the run occupies; the sockets of idle
    // pod hosts draw idle power.
    double busy_cpus = system.num_cpus * hostShare(system, result.num_gpus);
    double cpu_watts = busy_cpus * system.cpu.powerWatts(cpu_util) +
                       (system.num_cpus - busy_cpus) *
                           system.cpu.idle_watts;

    EnergyReport rep;
    rep.gpu_kwh = gpu_watts * hours / 1000.0;
    rep.cpu_kwh = cpu_watts * hours / 1000.0;
    rep.rest_kwh = params.platform_overhead_watts * hours / 1000.0;
    rep.avg_watts =
        gpu_watts + cpu_watts + params.platform_overhead_watts;
    return rep;
}

} // namespace mlps::train
