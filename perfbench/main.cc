/**
 * @file
 * perfbench: runs one seeded workload against mlpsim's public
 * functions and prints one JSON result line.
 *
 *   perfbench --workload paper_report|pod_whatif|serve_mixed
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--trace-out FILE]
 *
 * With --trace 0 the result holds every end-to-end metric; with
 * --trace 1 it holds every per-layer metric, and the spans go to
 * --trace-out as Chrome-trace JSON. Lines before the result start with
 * "# ": host facts, notes, and the "# repeat" record of exact counts
 * and the answer digest that must repeat for the same seed. The exit
 * code is 0 only when every answer was correct.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "bench_util.h"
#include "obs/registry.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

const char *const kEndToEnd[] = {
    "setup_s",         "cold_ms",       "warm_ms",
    "journal_ms",      "tail_ms",       "control_tail_ms",
    "answers_per_s",   "sustained_per_s", "peak_rss_mb",
    "table4_error_pct",
};

/** Per-layer metrics that are exact counts of the workload's own run. */
const char *const kCountMetrics[] = {
    "exec.requests",
    "exec.unique_runs",
    "exec.cache_hits",
    "exec.journal_loaded",
    "net.topology.route_cache.hits",
    "net.topology.route_cache.misses",
};

/** Span-name prefixes whose self time is reported per traced answer. */
const char *const kSelfLayers[] = {"sys", "exec", "attrib", "core",
                                   "serve", "control"};

std::vector<std::string>
perLayerNames()
{
    std::vector<std::string> names = {
        "net.allreduce_ms.pod64",     "net.allreduce_ms.pod512",
        "net.allreduce_us.box8",      "train.run_ms.pod512",
        "train.run_us.box8",          "train.run_ms.report_sum",
        "exec.fingerprint_us.pod",    "exec.fingerprint_us.box",
        "exec.journal_replay_ms",     "exec.run_wall_sum_ms.jobs1",
        "exec.run_wall_sum_ms.jobs2", "sys.pod_spec_ms",
        "sys.config_copy_us.pod",     "attrib.attribute_ms.pod512",
        "attrib.attribute_us.box8",   "attrib.to_json_us",
        "serve.handle_line_us",       "serve.dispatch_ms",
        "serve.runs_per_batch",       "serve.queue_wait_ms",
        "serve.queue_wait_ms.p99",    "serve.service_ms",
        "trace.overhead_ms.cold",     "trace.overhead_ms.warm",
        "load.generator_late_ms",
    };
    for (const char *s : {"scaling", "mixed_precision", "topology",
                          "scheduling", "characterization", "faults",
                          "degraded_fabric", "attribution", "pod_scale"})
        for (const char *temp : {"cold", "warm"})
            names.push_back(format("core.section_ms.%s.%s", s, temp));
    for (const char *c : kCountMetrics)
        names.push_back(c);
    for (const char *l : kSelfLayers)
        names.push_back(format("self_ms.%s", l));
    return names;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            std::size_t p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_report|pod_whatif|serve_mixed --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE]\n",
                 why);
    return 2;
}

/** Self time per traced answer of each layer, from the spans. */
void
setSelfTimes(Report &rep)
{
    const Tracer &t = Tracer::global();
    std::size_t roots = 0; // traced answers; control operations excluded
    for (const SpanRecord &r : t.spans())
        if (r.parent < 0 && std::strcmp(r.name, "control") != 0)
            ++roots;
    auto self = t.selfTimes();
    for (const char *layer : kSelfLayers) {
        double ms = 0.0;
        std::string prefix = layer;
        for (const auto &[name, v] : self)
            if (name == prefix || name.rfind(prefix + ".", 0) == 0)
                ms += v.first;
        rep.set(format("self_ms.%s", layer),
                roots ? ms / static_cast<double>(roots) : 0.0, "ms");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--workdir")
            o.workdir = v;
        else if (a == "--trace-out")
            o.trace_out = v;
        else
            return usage(("unknown option " + a).c_str());
    }
    if (o.workdir.empty() || !(o.seconds > 0.0))
        return usage("need --workdir and a positive --seconds");
    std::function<Report(const Options &)> workload;
    if (o.workload == "paper_report")
        workload = runPaperReport;
    else if (o.workload == "pod_whatif")
        workload = runPodWhatif;
    else if (o.workload == "serve_mixed")
        workload = runServeMixed;
    else
        return usage(("unknown workload " + o.workload).c_str());
    if (!makeDirs(o.workdir))
        return usage("cannot create the work directory");

    std::printf("# host: nproc=%u cpu=%s build=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PERFBENCH_BUILD_TYPE);
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::fflush(stdout);

    Report rep;
    try {
        rep = workload(o);
        if (o.trace) {
            setSelfTimes(rep);
            if (!rep.metrics.count("load.generator_late_ms"))
                rep.set("load.generator_late_ms", 0.0, "ms"); // closed loop
            measureLayers(o, rep);
            for (const char *c : kCountMetrics)
                rep.set(c, static_cast<double>(rep.counts[c]), "count");
            if (!o.trace_out.empty() &&
                !Tracer::global().writeChromeTrace(o.trace_out))
                rep.fail("cannot write " + o.trace_out);
            rep.note(format("trace: %zu spans",
                            Tracer::global().spans().size()));
        } else {
            double table4 = table4ErrorPct();
            if (!std::isfinite(table4))
                rep.fail("table IV error is not finite");
            rep.set("table4_error_pct", table4, "%");
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                    "MB");
        }
    } catch (const std::exception &e) {
        rep.attempted += 1;
        rep.fail(std::string("exception: ") + e.what());
    }
    removeTree(o.workdir);

    for (const std::string &n : rep.notes)
        std::printf("# %s\n", n.c_str());

    std::string counts;
    for (const auto &[k, v] : rep.counts)
        counts += format("%s%s:%llu", counts.empty() ? "" : ",",
                         jsonString(k).c_str(),
                         static_cast<unsigned long long>(v));
    std::printf("# repeat {\"counts\":{%s},\"digest\":%s}\n", counts.c_str(),
                jsonString(rep.answer_digest).c_str());

    std::vector<std::string> names;
    if (o.trace)
        names = perLayerNames();
    else
        names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    std::string metrics;
    for (const std::string &n : names) {
        auto it = rep.metrics.find(n);
        if (it == rep.metrics.end()) {
            rep.attempted += 1;
            rep.fail("metric not measured: " + n);
            std::printf("# FAILED: metric not measured: %s\n", n.c_str());
            continue;
        }
        metrics += format("%s%s:{\"value\":%.17g,\"unit\":%s}",
                          metrics.empty() ? "" : ",", jsonString(n).c_str(),
                          it->second.value,
                          jsonString(it->second.unit).c_str());
    }
    if (rep.attempted == 0)
        rep.attempted = 1;
    bool correct = rep.failed == 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), metrics.c_str());
    return correct ? 0 : 1;
}
