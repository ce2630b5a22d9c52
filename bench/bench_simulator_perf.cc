/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's own hot paths:
 * flow-level fair sharing, ring all-reduce evaluation, a full
 * training-run model, PCA, and the exact scheduler. Useful when extending the simulator — these paths run
 * thousands of times inside the table/figure benches.
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/report.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "models/zoo.h"
#include "net/allreduce.h"
#include "net/transfer.h"
#include "sched/optimal.h"
#include "sim/rng.h"
#include "stats/pca.h"
#include "sys/machines.h"

namespace {

using namespace mlps;

void
BM_FlowSimulator(benchmark::State &state)
{
    sys::SystemConfig dss = sys::dss8440();
    for (auto _ : state) {
        net::FlowSimulator fsim(dss.topo);
        for (int g = 0; g < 8; ++g)
            fsim.addFlow(dss.cpu_nodes[g / 4], dss.gpu_nodes[g], 64e6);
        benchmark::DoNotOptimize(fsim.run());
    }
}
BENCHMARK(BM_FlowSimulator);

void
BM_RingAllReduce(benchmark::State &state)
{
    sys::SystemConfig dss = sys::dss8440();
    auto gpus = dss.gpuSubset(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto r = net::ringAllReduce(dss.topo, gpus, 430e6);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_RingAllReduce)->Arg(2)->Arg(4)->Arg(8);

void
BM_TrainerRun(benchmark::State &state)
{
    sys::SystemConfig dss = sys::dss8440();
    train::Trainer trainer(dss);
    auto spec = *models::findWorkload("MLPf_Res50_MX");
    train::RunOptions opts;
    opts.num_gpus = 8;
    for (auto _ : state) {
        auto r = trainer.run(spec, opts);
        benchmark::DoNotOptimize(r.total_seconds);
    }
}
BENCHMARK(BM_TrainerRun);

void
BM_Pca(benchmark::State &state)
{
    sim::Rng rng(7);
    stats::Matrix samples(15, 8);
    for (int r = 0; r < 15; ++r)
        for (int c = 0; c < 8; ++c)
            samples.at(r, c) = rng.uniform(0.0, 100.0);
    for (auto _ : state) {
        auto res = stats::pca(samples);
        benchmark::DoNotOptimize(res.eigenvalues[0]);
    }
}
BENCHMARK(BM_Pca);

void
BM_OptimalSchedule(benchmark::State &state)
{
    std::vector<sched::JobSpec> jobs;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        sched::JobSpec j;
        j.name = "job" + std::to_string(i);
        double base = 3600.0 * (1 + i % 5);
        for (int w = 1; w <= 8; w *= 2)
            j.seconds_at_width[w] = base / (0.3 * w + 0.7);
        jobs.push_back(std::move(j));
    }
    for (auto _ : state) {
        auto r = sched::optimalSchedule(jobs, 8);
        benchmark::DoNotOptimize(r.makespan_s);
    }
}
BENCHMARK(BM_OptimalSchedule)->Arg(7)->Arg(10);

/**
 * The full study report through the exec engine, cold cache every
 * iteration. Arg is the worker count (0 = auto, i.e. MLPSIM_JOBS or
 * hardware concurrency) — comparing Arg(1) with Arg(0) shows the
 * serial-vs-parallel report wall time on the host.
 */
void
BM_StudyReport(benchmark::State &state)
{
    const int jobs = static_cast<int>(state.range(0));
    std::uint64_t hits = 0, unique = 0;
    int resolved = 0;
    for (auto _ : state) {
        exec::Engine engine(exec::ExecOptions{jobs});
        auto text = core::generateStudyReport({}, engine);
        benchmark::DoNotOptimize(text.data());
        auto s = engine.stats();
        hits = s.cache_hits;
        unique = s.unique_runs;
        resolved = s.jobs;
    }
    state.counters["workers"] = static_cast<double>(resolved);
    state.counters["cache_hits"] = static_cast<double>(hits);
    state.counters["unique_runs"] = static_cast<double>(unique);
}
BENCHMARK(BM_StudyReport)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

/**
 * The same report against a pre-warmed cache: every point is a hit,
 * so this measures the non-simulation cost (rendering, PCA, the
 * schedule search) plus cache lookups.
 */
void
BM_StudyReportWarm(benchmark::State &state)
{
    exec::Engine engine(exec::ExecOptions{1});
    auto warmup = core::generateStudyReport({}, engine);
    benchmark::DoNotOptimize(warmup.data());
    for (auto _ : state) {
        auto text = core::generateStudyReport({}, engine);
        benchmark::DoNotOptimize(text.data());
    }
    state.counters["cached_points"] =
        static_cast<double>(engine.cache().size());
}
BENCHMARK(BM_StudyReportWarm)->Unit(benchmark::kMillisecond);

/**
 * The report with a durable journal, cold on-disk cache: measures
 * the full simulate + encode + append + fflush cost of building a
 * journal from nothing. Compare with BM_StudyReportJournalWarm for
 * the durability overhead and payoff.
 */
void
BM_StudyReportJournalCold(benchmark::State &state)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "mlpsim_bench_journal_cold")
            .string();
    std::uint64_t unique = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fs::remove_all(dir);
        state.ResumeTiming();
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        exec::Engine engine(std::move(opts));
        auto text = core::generateStudyReport({}, engine);
        benchmark::DoNotOptimize(text.data());
        unique = engine.stats().unique_runs;
    }
    fs::remove_all(dir);
    state.counters["unique_runs"] = static_cast<double>(unique);
}
BENCHMARK(BM_StudyReportJournalCold)->Unit(benchmark::kMillisecond);

/**
 * The report served entirely from a pre-built journal: load + decode
 * replaces simulation, so this is the crash-resume path a user hits
 * when a killed campaign restarts.
 */
void
BM_StudyReportJournalWarm(benchmark::State &state)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / "mlpsim_bench_journal_warm")
            .string();
    fs::remove_all(dir);
    {
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        exec::Engine engine(std::move(opts));
        auto warmup = core::generateStudyReport({}, engine);
        benchmark::DoNotOptimize(warmup.data());
    }
    std::uint64_t loaded = 0, unique = 0;
    for (auto _ : state) {
        exec::ExecOptions opts(1);
        opts.cache_dir = dir;
        exec::Engine engine(std::move(opts));
        auto text = core::generateStudyReport({}, engine);
        benchmark::DoNotOptimize(text.data());
        loaded = engine.stats().journal_loaded;
        unique = engine.stats().unique_runs;
    }
    fs::remove_all(dir);
    state.counters["journal_loaded"] = static_cast<double>(loaded);
    state.counters["unique_runs"] = static_cast<double>(unique);
}
BENCHMARK(BM_StudyReportJournalWarm)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
