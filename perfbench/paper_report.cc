/**
 * @file
 * paper_report: closed loop, one caller, one engine worker. Each
 * cycle renders the full study report three ways — cold on a fresh
 * engine with a fresh journal, replayed from that journal on a fresh
 * engine, and again on a warm engine — and checks the three byte
 * strings are identical.
 */

#include <optional>

#include "core/report.h"
#include "exec/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace mlps;

namespace {

/** Latency limit of one report for sustained_per_s, ms. */
constexpr double kReportLimitMs = 5000.0;

struct CycleCounts {
    std::uint64_t requests = 0;
    std::uint64_t unique_runs = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t journal_loaded = 0;
};

} // namespace

Report
runPaperReport(const Options &o)
{
    Report rep;
    Rng rng(o.seed);
    Tracer &tracer = Tracer::global();

    // Set-up before the first report, then twice after every cycle,
    // so setup_s is a median over the whole run.
    const std::string setup_dir = o.workdir + "/setup";
    Samples setup;
    setup.add(timeSetup(setup_dir));

    core::ReportOptions ropts;
    ropts.jobs = 1;

    Samples cold[2], warm[2], journal[2], control;
    Samples all;
    std::string expected;
    CycleCounts first;
    std::uint32_t request = 0;

    const RouteCacheDelta route_cache;
    double t_start = nowSeconds();
    int cycle = 0;
    for (; cycle == 0 || nowSeconds() - t_start < o.seconds; ++cycle) {
        // With --trace 1, odd cycles are traced and even ones are not,
        // so the overhead is measured under the same host drift.
        int traced = o.trace && (cycle % 2 == 1) ? 1 : 0;
        tracer.setArmed(traced != 0);
        std::string dir = o.workdir + format("/report-%d", cycle);
        // The seed picks which warm engine answers: the one that wrote
        // the journal (before the replay) or the one that replayed it.
        bool warm_on_writer = rng.uniform() < 0.5;

        std::string cold_txt, warm_txt, journal_txt;
        CycleCounts counts;
        auto warmReport = [&](exec::Engine &engine) {
            ScopedSpan root("paper_report.warm", ++request);
            double t0 = nowSeconds();
            {
                ScopedSpan s("core.generate_study_report");
                warm_txt = core::generateStudyReport(ropts, engine);
            }
            double ms = (nowSeconds() - t0) * 1e3;
            warm[traced].add(ms);
            all.add(ms);
        };

        {
            std::optional<exec::Engine> writer;
            {
                ScopedSpan root("paper_report.cold", ++request);
                double t0 = nowSeconds();
                {
                    ScopedSpan s("exec.engine_open");
                    writer.emplace(engineOptions(dir));
                }
                {
                    ScopedSpan s("core.generate_study_report");
                    cold_txt = core::generateStudyReport(ropts, *writer);
                }
                double ms = (nowSeconds() - t0) * 1e3;
                cold[traced].add(ms);
                all.add(ms);
            }
            exec::EngineStats st = writer->stats();
            counts.requests = st.requests;
            counts.unique_runs = st.unique_runs;
            counts.cache_hits = st.cache_hits;
            if (!writer->degradedRuns().empty())
                rep.fail(format("cold report degraded %zu run(s)",
                                writer->degradedRuns().size()));
            control.add(controlOp(*writer));
            if (warm_on_writer) {
                warmReport(*writer);
                control.add(controlOp(*writer));
            }
        }

        {
            std::optional<exec::Engine> reader;
            {
                ScopedSpan root("paper_report.journal", ++request);
                double t0 = nowSeconds();
                {
                    ScopedSpan s("exec.engine_open");
                    reader.emplace(engineOptions(dir));
                }
                {
                    ScopedSpan s("core.generate_study_report");
                    journal_txt = core::generateStudyReport(ropts, *reader);
                }
                double ms = (nowSeconds() - t0) * 1e3;
                journal[traced].add(ms);
                all.add(ms);
            }
            exec::EngineStats st = reader->stats();
            counts.journal_loaded = st.journal_loaded;
            if (st.unique_runs != 0)
                rep.fail(format("journal replay re-simulated %llu point(s)",
                                static_cast<unsigned long long>(
                                    st.unique_runs)));
            control.add(controlOp(*reader));
            if (!warm_on_writer) {
                warmReport(*reader);
                control.add(controlOp(*reader));
            }
        }
        removeTree(dir);
        rep.attempted += 6;
        setup.add(timeSetup(setup_dir));
        setup.add(timeSetup(setup_dir));

        if (cycle == 0) {
            expected = cold_txt;
            first = counts;
            route_cache.record(rep);
        }
        if (cold_txt != expected)
            rep.fail(format("cycle %d: cold report bytes changed", cycle));
        if (journal_txt != cold_txt)
            rep.fail(format("cycle %d: journal report differs from cold",
                            cycle));
        if (warm_txt != cold_txt)
            rep.fail(format("cycle %d: warm report differs from cold",
                            cycle));
        if (counts.requests != first.requests ||
            counts.unique_runs != first.unique_runs ||
            counts.cache_hits != first.cache_hits ||
            counts.journal_loaded != first.journal_loaded)
            rep.fail(format("cycle %d: engine counts moved", cycle));
    }
    double elapsed = nowSeconds() - t_start;
    tracer.setArmed(false);

    Digest answers;
    answers.mix(expected);
    rep.answer_digest = answers.hex();
    rep.counts["exec.requests"] = first.requests;
    rep.counts["exec.unique_runs"] = first.unique_runs;
    rep.counts["exec.cache_hits"] = first.cache_hits;
    rep.counts["exec.journal_loaded"] = first.journal_loaded;
    rep.counts["report.bytes"] = expected.size();
    rep.note(format("paper_report: %d cycles in %.2f s", cycle, elapsed));

    if (o.trace) {
        rep.set("trace.overhead_ms.cold",
                cold[1].median() - cold[0].median(), "ms");
        rep.set("trace.overhead_ms.warm",
                warm[1].median() - warm[0].median(), "ms");
        return rep;
    }

    rep.set("setup_s", setup.median(), "s");
    rep.set("cold_ms", cold[0].median(), "ms");
    rep.set("warm_ms", warm[0].median(), "ms");
    rep.set("journal_ms", journal[0].median(), "ms");
    // About 60 reports in a 30 s run: p80 is the highest level that
    // keeps >= 10 beyond it.
    rep.setTail("tail_ms", all, 80.0);
    rep.setTail("control_tail_ms", control, 80.0);
    rep.set("answers_per_s", static_cast<double>(all.size()) / elapsed,
            "1/s");
    rep.set("sustained_per_s",
            static_cast<double>(all.countAtMost(kReportLimitMs)) / elapsed,
            "1/s");
    return rep;
}

} // namespace perfbench
