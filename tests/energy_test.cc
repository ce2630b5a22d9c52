/**
 * @file
 * Tests for the device power models, energy estimation, and gradient
 * accumulation.
 */

#include <gtest/gtest.h>

#include "models/zoo.h"
#include "sim/logger.h"
#include "sys/machines.h"
#include "train/energy.h"
#include "train/trainer.h"

namespace {

using namespace mlps;
using mlps::sim::FatalError;

// ------------------------------------------------------------ power model

TEST(Power, GpuLinearInterpolation)
{
    hw::GpuSpec g = hw::teslaV100Sxm2_16();
    EXPECT_DOUBLE_EQ(g.powerWatts(0.0), g.idle_watts);
    EXPECT_DOUBLE_EQ(g.powerWatts(1.0), g.tdp_watts);
    EXPECT_DOUBLE_EQ(g.powerWatts(0.5),
                     (g.idle_watts + g.tdp_watts) / 2.0);
    EXPECT_THROW(g.powerWatts(-0.1), FatalError);
    EXPECT_THROW(g.powerWatts(1.1), FatalError);
}

TEST(Power, DeviceTdps)
{
    EXPECT_DOUBLE_EQ(hw::teslaV100Sxm2_16().tdp_watts, 300.0);
    EXPECT_DOUBLE_EQ(hw::teslaV100Pcie_16().tdp_watts, 250.0);
    EXPECT_DOUBLE_EQ(hw::teslaP100Pcie_16().tdp_watts, 250.0);
}

TEST(Power, CpuModel)
{
    hw::CpuSpec c = hw::xeonGold6148();
    EXPECT_DOUBLE_EQ(c.powerWatts(0.0), c.idle_watts);
    EXPECT_DOUBLE_EQ(c.powerWatts(1.0), c.tdp_watts);
}

// ----------------------------------------------------------------- energy

class EnergyTest : public ::testing::Test
{
  protected:
    EnergyTest() : dss_(sys::dss8440()), trainer_(dss_) {}

    train::TrainResult
    run(const char *name, int gpus,
        hw::Precision p = hw::Precision::Mixed)
    {
        auto spec = *models::findWorkload(name);
        train::RunOptions opts;
        opts.num_gpus = gpus;
        opts.precision = p;
        return trainer_.run(spec, opts);
    }

    sys::SystemConfig dss_;
    train::Trainer trainer_;
};

TEST_F(EnergyTest, ComponentsPositiveAndConsistent)
{
    auto r = run("MLPf_SSD_Py", 4);
    auto e = train::estimateEnergy(dss_, r);
    EXPECT_GT(e.gpu_kwh, 0.0);
    EXPECT_GT(e.cpu_kwh, 0.0);
    EXPECT_GT(e.rest_kwh, 0.0);
    EXPECT_NEAR(e.totalKwh(),
                e.avg_watts * r.total_seconds / 3600.0 / 1000.0,
                e.totalKwh() * 1e-9);
}

TEST_F(EnergyTest, MixedPrecisionSavesEnergy)
{
    auto fp32 = run("MLPf_Res50_MX", 8, hw::Precision::FP32);
    auto mixed = run("MLPf_Res50_MX", 8, hw::Precision::Mixed);
    double e32 = train::estimateEnergy(dss_, fp32).totalKwh();
    double emx = train::estimateEnergy(dss_, mixed).totalKwh();
    EXPECT_LT(emx, e32 * 0.5); // ~3x faster at similar power
}

TEST_F(EnergyTest, IdleGpusBilledWhenRequested)
{
    auto r = run("MLPf_GNMT_Py", 2);
    train::PowerModelParams with, without;
    with.charge_idle_gpus = true;
    without.charge_idle_gpus = false;
    double e_with = train::estimateEnergy(dss_, r, with).gpu_kwh;
    double e_without =
        train::estimateEnergy(dss_, r, without).gpu_kwh;
    // Six idle V100s for the run duration.
    double expected_gap =
        6.0 * dss_.gpu.idle_watts * r.total_seconds / 3600.0 / 1000.0;
    EXPECT_NEAR(e_with - e_without, expected_gap,
                expected_gap * 1e-6);
}

TEST_F(EnergyTest, IdlePodHostsDrawIdleCpuPower)
{
    // One busy host of a two-host pod: its sockets burn what the box
    // run burns, the idle host's sockets draw idle power.
    auto r = run("MLPf_Res50_TF", 8);
    sys::SystemConfig pod = sys::withPod(dss_, 1, 2);
    train::RunOptions opts;
    opts.num_gpus = 8;
    auto rp = train::Trainer(pod).run(
        *models::findWorkload("MLPf_Res50_TF"), opts);
    double box_cpu = train::estimateEnergy(dss_, r).cpu_kwh;
    double pod_cpu = train::estimateEnergy(pod, rp).cpu_kwh;
    double idle_host = dss_.num_cpus * dss_.cpu.idle_watts *
                       r.total_seconds / 3600.0 / 1000.0;
    EXPECT_NEAR(pod_cpu - box_cpu, idle_host, idle_host * 1e-9);
}

TEST_F(EnergyTest, MoreGpusCanCostMoreEnergyWhenScalingIsPoor)
{
    // NCF barely speeds up past 2 GPUs, so 8 GPUs burn more kWh.
    auto two = run("MLPf_NCF_Py", 2);
    auto eight = run("MLPf_NCF_Py", 8);
    double e2 = train::estimateEnergy(dss_, two).totalKwh();
    double e8 = train::estimateEnergy(dss_, eight).totalKwh();
    EXPECT_GT(e8, e2 * 0.9);
}

TEST(Energy, ZeroDurationIsFatal)
{
    sys::SystemConfig dss = sys::dss8440();
    train::TrainResult r;
    EXPECT_THROW(train::estimateEnergy(dss, r), FatalError);
}

// ---------------------------------------------------- grad accumulation

TEST(GradAccumulation, PreservesSubmissionBatch)
{
    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);
    auto spec = *models::findWorkload("MLPf_Res50_MX");
    spec.per_gpu_batch = 1024; // far beyond 16 GiB

    train::RunOptions shrink;
    shrink.num_gpus = 1;
    auto shrunk = trainer.run(spec, shrink);
    EXPECT_LT(shrunk.per_gpu_batch, 1024);

    train::RunOptions accum = shrink;
    accum.grad_accumulation = true;
    auto kept = trainer.run(spec, accum);
    EXPECT_GE(kept.per_gpu_batch, 1024);
    EXPECT_GT(kept.iter.micro_batches, 1);
    // Compute time scales with the micro-batch count.
    EXPECT_GT(kept.iter.fwd_s, shrunk.iter.fwd_s * 1.5);
    // Only one optimizer step and one all-reduce per iteration.
    EXPECT_NEAR(kept.iter.optimizer_s, shrunk.iter.optimizer_s, 1e-9);
}

TEST(GradAccumulation, NoopWhenBatchFits)
{
    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);
    auto spec = *models::findWorkload("MLPf_GNMT_Py");
    train::RunOptions plain, accum;
    plain.num_gpus = accum.num_gpus = 2;
    accum.grad_accumulation = true;
    auto a = trainer.run(spec, plain);
    auto b = trainer.run(spec, accum);
    EXPECT_EQ(b.iter.micro_batches, 1);
    EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
}

TEST(GradAccumulation, RespectsGlobalBatchCap)
{
    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);
    auto spec = *models::findWorkload("MLPf_NCF_Py");
    train::RunOptions accum;
    accum.num_gpus = 8;
    accum.grad_accumulation = true;
    auto r = trainer.run(spec, accum);
    EXPECT_LE(r.global_batch,
              spec.convergence.global_batch_cap * 1.001);
}

} // namespace
