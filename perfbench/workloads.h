/**
 * @file
 * The three perfbench workloads, the traced layer suite, and the
 * pieces they share: set-up, the serve_mixed request plan and the
 * Table IV error check. See WORKLOADS.md for what each one measures
 * and why it was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/engine.h"
#include "serve/server.h"

namespace perfbench {


Report runPaperReport(const Options &o);
Report runPodWhatif(const Options &o);
Report runServeMixed(const Options &o);

/**
 * The traced run's layer suite: times each layer's public calls from
 * outside the program and adds every per-layer metric that does not
 * come from the workload's own loop.
 */
void measureLayers(const Options &o, Report &rep);

/**
 * Mean absolute % error of the modelled Table IV cells
 * (core::Suite::scalingStudy on the DSS 8440) against the paper.
 */
double table4ErrorPct();

/**
 * Route-cache work (net.topology.route_cache.{hits,misses} in the
 * metric registry) done between construction and record().
 */
class RouteCacheDelta
{
  public:
    RouteCacheDelta();
    /** Store the deltas as exact counts of `rep`. */
    void record(Report &rep) const;

  private:
    double hits_ = 0.0;
    double misses_ = 0.0;
};

/**
 * One set-up of a closed-loop workload, timed: the catalog every entry
 * point resolves names against, and a single-worker engine opening a
 * fresh journal in `dir` (removed afterwards). The catalog is kept in
 * `*keep` when given. The workloads repeat it across the whole run and
 * report the median as setup_s. @return seconds.
 */
double timeSetup(const std::string &dir,
                 std::optional<mlps::serve::Catalog> *keep = nullptr);

/**
 * The in-process equivalent of the `stats` and `metrics` verbs: the
 * engine's counters and the metric registry as JSON. @return ms.
 */
double controlOp(const mlps::exec::Engine &engine);

/** Engine options of a single-worker engine on `cache_dir`. */
mlps::exec::ExecOptions engineOptions(const std::string &cache_dir,
                                      int jobs = 1);

// ---- serve_mixed's request plan ---------------------------------------

/** One request line of the open-loop plan. */
struct ServeLine {
    enum Kind { BoxRun, PodRun, Ping, Stats };
    Kind kind = BoxRun;
    double due_s = 0.0;  ///< send time, seconds after the plan starts
    std::string id;
    std::string text;    ///< the protocol line, no newline

    bool isRun() const { return kind == BoxRun || kind == PodRun; }
};

/** A fixed-rate phase of the plan. */
struct ServePhase {
    double rate = 0.0;    ///< Poisson arrivals per second
    double start_s = 0.0;
    double end_s = 0.0;
    std::size_t begin = 0; ///< first line index
    std::size_t end = 0;   ///< one past the last line index
};

struct ServePlan {
    std::vector<ServeLine> lines;
    /** Ladder steps, then the measurement phase (last). */
    std::vector<ServePhase> phases;
};

/** serve_mixed's seeded requests for a run of `seconds`. */
ServePlan planServeMixed(std::uint64_t seed, double seconds);

/**
 * The box-scale run lines a serve_mixed journal holds: Table III
 * machines x built-in workloads x 1-8 GPUs x precision.
 */
std::vector<std::string> boxUniverseLines();

/** The server configuration of serve_mixed, on `journal_dir`. */
mlps::serve::ServeConfig serveConfig(const std::string &journal_dir);

/** Simulate every box-scale point into a journal in `dir`. */
void prebuildServeJournal(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
