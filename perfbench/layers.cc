/**
 * @file
 * The traced run's layer suite: each layer's public calls, timed from
 * outside the program (medians of repeated calls), plus the
 * in-process replay of serve_mixed's lines through serve::ServeCore,
 * and the Table IV error check shared by every workload.
 */

#include <map>
#include <optional>

#include "core/report.h"
#include "core/suite.h"
#include "exec/engine.h"
#include "exec/fingerprint.h"
#include "obs/attrib/attribution.h"
#include "obs/registry.h"
#include "serve/server.h"
#include "sys/machines.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

using namespace mlps;

namespace {

/**
 * Table IV of the paper: per workload, 1x P100 reference minutes,
 * 1x V100 minutes on the DSS 8440, the P-to-V speedup, and the 2/4/8
 * GPU speedups over one GPU.
 */
struct PaperRow {
    const char *workload;
    double p100_min, v100_min, p_to_v, s2, s4, s8;
};
const PaperRow kTable4[] = {
    {"MLPf_Res50_TF", 8831.3, 1016.9, 8.68, 1.92, 3.84, 7.04},
    {"MLPf_Res50_MX", 8831.1, 957.0, 9.23, 1.92, 3.76, 5.92},
    {"MLPf_SSD_Py", 827.7, 206.1, 4.02, 1.94, 3.72, 7.28},
    {"MLPf_MRCNN_Py", 4999.5, 1840.4, 2.72, 1.76, 2.64, 5.60},
    {"MLPf_XFMR_Py", 1869.8, 636.0, 2.94, 1.42, 2.92, 5.60},
    {"MLPf_NCF_Py", 46.7, 2.2, 21.23, 1.88, 2.16, 2.32},
};

const char *const kSections[] = {
    "scaling",         "mixed_precision", "topology",
    "scheduling",      "characterization", "faults",
    "degraded_fabric", "attribution",     "pod_scale",
};

core::ReportOptions
onlySection(const std::string &name)
{
    core::ReportOptions r;
    r.jobs = 1;
    r.include_scaling = name == "scaling";
    r.include_mixed_precision = name == "mixed_precision";
    r.include_topology = name == "topology";
    r.include_scheduling = name == "scheduling";
    r.include_characterization = name == "characterization";
    r.include_faults = name == "faults";
    r.include_degraded_fabric = name == "degraded_fabric";
    r.include_attribution = name == "attribution";
    r.include_pod_scale = name == "pod_scale";
    return r;
}

/** Keep a value alive so the timed call is not folded away. */
template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

void
measureSections(Report &rep)
{
    // Three rounds; within a round every section runs cold on a fresh
    // engine, then warm on the same engine.
    std::map<std::string, Samples> cold, warm;
    for (int round = 0; round < 3; ++round)
        for (const char *section : kSections) {
            core::ReportOptions r = onlySection(section);
            exec::Engine engine(engineOptions(""));
            double t0 = nowSeconds();
            std::string a = core::generateStudyReport(r, engine);
            double t1 = nowSeconds();
            std::string b = core::generateStudyReport(r, engine);
            double t2 = nowSeconds();
            cold[section].add((t1 - t0) * 1e3);
            warm[section].add((t2 - t1) * 1e3);
            ++rep.attempted;
            if (a != b || a.empty())
                rep.fail(std::string("section ") + section +
                         ": warm bytes differ from cold");
        }
    for (const char *section : kSections) {
        rep.set(format("core.section_ms.%s.cold", section),
                cold[section].median(), "ms");
        rep.set(format("core.section_ms.%s.warm", section),
                warm[section].median(), "ms");
    }
}

void
measureExec(const Options &o, Report &rep)
{
    core::ReportOptions ropts;
    ropts.jobs = 1;

    // Summed per-run wall time of cold reports at 1 and 2 workers,
    // alternating so host drift hits both alike.
    Samples wall[2];
    for (int round = 0; round < 2; ++round)
        for (int jobs : {1, 2}) {
            exec::Engine engine(engineOptions("", jobs));
            core::generateStudyReport(ropts, engine);
            wall[jobs - 1].add(engine.stats().sim_seconds * 1e3);
        }
    rep.set("exec.run_wall_sum_ms.jobs1", wall[0].median(), "ms");
    rep.set("exec.run_wall_sum_ms.jobs2", wall[1].median(), "ms");

    // Trainer::run over the report's unique points, captured as the
    // engine evaluates them, and the journal replay of the report.
    std::vector<exec::RunRequest> points;
    std::string dir = o.workdir + "/layers-journal";
    {
        exec::Engine engine(engineOptions(dir));
        engine.setEvalHook([&points](const exec::RunRequest &r, int) {
            points.push_back(r);
        });
        core::generateStudyReport(ropts, engine);
    }
    double sum = 0.0;
    for (const exec::RunRequest &r : points) {
        train::Trainer trainer(r.system);
        double t0 = nowSeconds();
        train::TrainResult res = trainer.run(r.workload, r.options);
        sum += nowSeconds() - t0;
        keep(res);
    }
    rep.set("train.run_ms.report_sum", sum * 1e3, "ms");
    rep.set("exec.journal_replay_ms", 1e3 * medianSeconds(5, [&] {
        std::optional<exec::Engine> e;
        e.emplace(engineOptions(dir));
        keep(e->stats().journal_loaded);
    }), "ms");
    removeTree(dir);
}

void
measureModelLayers(Report &rep)
{
    serve::Catalog catalog;
    const wl::WorkloadSpec &res50 =
        catalog.registry.find("MLPf_Res50_MX")->spec();
    const std::string pod_spec = "pod(C4140 (M),16x8)";
    sys::SystemConfig pod, box = sys::dss8440();
    std::string error;
    if (!sys::systemFromSpec(pod_spec, &pod, &error)) {
        rep.fail("pod spec: " + error);
        return;
    }
    const hw::Precision mixed = hw::Precision::Mixed;

    rep.set("net.allreduce_ms.pod64", 1e3 * medianSeconds(15, [&] {
        keep(train::gradientAllReduce(pod, res50, mixed, 64));
    }), "ms");
    rep.set("net.allreduce_ms.pod512", 1e3 * medianSeconds(7, [&] {
        keep(train::gradientAllReduce(pod, res50, mixed, 512));
    }), "ms");
    rep.set("net.allreduce_us.box8", 1e6 * medianSeconds(201, [&] {
        keep(train::gradientAllReduce(box, res50, mixed, 8));
    }), "us");

    train::RunOptions pod512;
    pod512.num_gpus = 512;
    train::RunOptions box8;
    box8.num_gpus = 8;
    train::Trainer pod_trainer(pod), box_trainer(box);
    train::TrainResult pod_result = pod_trainer.run(res50, pod512);
    train::TrainResult box_result = box_trainer.run(res50, box8);
    rep.set("train.run_ms.pod512", 1e3 * medianSeconds(7, [&] {
        keep(pod_trainer.run(res50, pod512));
    }), "ms");
    rep.set("train.run_us.box8", 1e6 * medianSeconds(201, [&] {
        keep(box_trainer.run(res50, box8));
    }), "us");

    rep.set("exec.fingerprint_us.pod", 1e6 * medianSeconds(51, [&] {
        keep(exec::fingerprintOf(pod));
    }), "us");
    rep.set("exec.fingerprint_us.box", 1e6 * medianSeconds(501, [&] {
        keep(exec::fingerprintOf(box));
    }), "us");

    rep.set("sys.pod_spec_ms", 1e3 * medianSeconds(21, [&] {
        sys::SystemConfig s;
        std::string e;
        sys::systemFromSpec(pod_spec, &s, &e);
        keep(s);
    }), "ms");
    rep.set("sys.config_copy_us.pod", 1e6 * medianSeconds(101, [&] {
        sys::SystemConfig copy = pod;
        keep(copy);
    }), "us");

    obs::attrib::Attribution pod_attr =
        obs::attrib::attributeRun(pod, res50, pod512, pod_result);
    rep.set("attrib.attribute_ms.pod512", 1e3 * medianSeconds(7, [&] {
        keep(obs::attrib::attributeRun(pod, res50, pod512, pod_result));
    }), "ms");
    rep.set("attrib.attribute_us.box8", 1e6 * medianSeconds(201, [&] {
        keep(obs::attrib::attributeRun(box, res50, box8, box_result));
    }), "us");
    rep.set("attrib.to_json_us", 1e6 * medianSeconds(51, [&] {
        keep(obs::attrib::toJson(pod_attr));
    }), "us");
}

/**
 * serve_mixed's measurement-phase lines replayed through an in-process
 * ServeCore on a compressed timeline: lines arrive at their due times,
 * idle gaps are skipped, and the core dispatches one batch whenever
 * every line that has arrived is handled — as the poll loop does.
 */
void
measureServeCore(const Options &o, Report &rep)
{
    const ServePlan plan = planServeMixed(o.seed, o.seconds);
    const ServePhase &m = plan.phases.back();
    const std::size_t end = std::min(m.end, m.begin + 4000);
    std::string dir = o.workdir + "/replay-journal";
    prebuildServeJournal(dir);

    const serve::ServeConfig cfg = serveConfig(dir);

    // Emitted lines are kept raw with their virtual times and decoded
    // after the replay, so decoding is not timed as serve work.
    struct Emitted {
        std::string line;
        double batch_start; ///< < 0: emitted outside dispatchBatch
        double at;          ///< virtual emit time
    };
    std::vector<Emitted> emitted;
    std::vector<double> admitted(plan.lines.size(), 0.0);
    Samples handle_us, dispatch_ms, per_batch;
    double vnow = 0.0;         // virtual server clock, seconds
    double batch_start = -1.0; // virtual start of the batch in flight
    double batch_t0 = 0.0;     // host clock at that start
    serve::ServeCore core(cfg, [&](const std::string &,
                                   const std::string &line) {
        double at = batch_start < 0.0
                        ? vnow
                        : batch_start + (nowSeconds() - batch_t0);
        emitted.push_back({line, batch_start, at});
    });
    core.clientConnected("run");
    core.clientConnected("ctl");

    std::size_t k = m.begin;
    while (k < end || core.hasPending()) {
        if (!core.hasPending() && k < end && plan.lines[k].due_s > vnow)
            vnow = plan.lines[k].due_s;
        while (k < end && plan.lines[k].due_s <= vnow) {
            const ServeLine &l = plan.lines[k];
            double t0 = nowSeconds();
            core.handleLine(l.isRun() ? "run" : "ctl", l.text, vnow);
            double dt = nowSeconds() - t0;
            handle_us.add(dt * 1e6);
            vnow += dt;
            admitted[k] = vnow;
            ++k;
        }
        if (core.hasPending()) {
            batch_start = vnow;
            batch_t0 = nowSeconds();
            std::size_t runs = core.dispatchBatch();
            double dt = nowSeconds() - batch_t0;
            batch_start = -1.0;
            vnow += dt;
            dispatch_ms.add(dt * 1e3);
            per_batch.add(static_cast<double>(runs));
        }
    }

    std::map<std::string, std::size_t> index;
    for (std::size_t i = m.begin; i < end; ++i)
        index[plan.lines[i].id] = i;
    Samples queue_wait, service;
    std::size_t bad = 0;
    for (const Emitted &e : emitted) {
        serve::Response r;
        std::string error;
        if (!serve::decodeResponse(e.line, &r, &error) || r.type != "result")
            continue;
        if (r.status != "ok")
            ++bad;
        auto it = index.find(r.id);
        if (it == index.end() || e.batch_start < 0.0)
            continue;
        queue_wait.add((e.batch_start - admitted[it->second]) * 1e3);
        service.add((e.at - e.batch_start) * 1e3);
    }
    rep.attempted += end - m.begin;
    if (bad)
        rep.fail(format("serve replay: %zu run(s) failed", bad));
    removeTree(dir);

    rep.set("serve.handle_line_us", handle_us.median(), "us");
    rep.set("serve.dispatch_ms", dispatch_ms.median(), "ms");
    rep.set("serve.runs_per_batch", per_batch.empty()
                                        ? 0.0
                                        : per_batch.sum() /
                                              static_cast<double>(
                                                  per_batch.size()),
            "count");
    rep.set("serve.queue_wait_ms", queue_wait.median(), "ms");
    rep.set("serve.queue_wait_ms.p99", queue_wait.percentile(99.0), "ms");
    rep.set("serve.service_ms", service.median(), "ms");
}

} // namespace

RouteCacheDelta::RouteCacheDelta()
    : hits_(obs::MetricRegistry::global().value(
          "net.topology.route_cache.hits")),
      misses_(obs::MetricRegistry::global().value(
          "net.topology.route_cache.misses"))
{
}

void
RouteCacheDelta::record(Report &rep) const
{
    RouteCacheDelta now;
    rep.counts["net.topology.route_cache.hits"] =
        static_cast<std::uint64_t>(now.hits_ - hits_);
    rep.counts["net.topology.route_cache.misses"] =
        static_cast<std::uint64_t>(now.misses_ - misses_);
}

double
timeSetup(const std::string &dir, std::optional<serve::Catalog> *keep)
{
    double t0 = nowSeconds();
    {
        std::optional<serve::Catalog> local;
        (keep ? *keep : local).emplace();
        exec::Engine engine(engineOptions(dir));
    }
    double dt = nowSeconds() - t0;
    removeTree(dir);
    return dt;
}

double
controlOp(const exec::Engine &engine)
{
    double t0 = nowSeconds();
    {
        ScopedSpan s("control");
        keep(engine.stats());
        keep(obs::MetricRegistry::global().toJson());
    }
    return (nowSeconds() - t0) * 1e3;
}

exec::ExecOptions
engineOptions(const std::string &cache_dir, int jobs)
{
    exec::ExecOptions e(jobs);
    e.cache_dir = cache_dir;
    e.on_error = exec::ErrorPolicy::Capture;
    return e;
}

double
table4ErrorPct()
{
    core::Suite suite(sys::dss8440());
    std::vector<std::string> names;
    for (const PaperRow &p : kTable4)
        names.push_back(p.workload);
    exec::Engine engine(engineOptions(""));
    std::vector<core::ScalingRow> rows =
        suite.scalingStudy(names, {1, 2, 4, 8}, &engine);
    double sum = 0.0;
    int cells = 0;
    auto add = [&](double model, double paper) {
        sum += std::abs(model - paper) / paper;
        ++cells;
    };
    for (std::size_t i = 0; i < rows.size() && i < std::size(kTable4); ++i) {
        const core::ScalingRow &r = rows[i];
        const PaperRow &p = kTable4[i];
        add(r.p100_minutes, p.p100_min);
        add(r.v100_minutes, p.v100_min);
        add(r.p_to_v, p.p_to_v);
        add(r.scaling.at(2), p.s2);
        add(r.scaling.at(4), p.s4);
        add(r.scaling.at(8), p.s8);
    }
    return cells ? 100.0 * sum / cells : 0.0;
}

void
measureLayers(const Options &o, Report &rep)
{
    measureModelLayers(rep);
    measureExec(o, rep);
    measureSections(rep);
    measureServeCore(o, rep);
}

} // namespace perfbench
