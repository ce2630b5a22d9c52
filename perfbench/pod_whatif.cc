/**
 * @file
 * pod_whatif: closed loop, one caller, one engine worker. A seeded
 * stream of `mlpsim explain`-style capacity questions, each resolved
 * through sys::systemFromSpec -> Engine::runOne ->
 * obs::attrib::attributeRun -> toJson.
 *
 * The questions are the 84 points of a fixed universe (7 MLPerf
 * workloads x an NVLink and a PCIe box x {64, 128, 256, 256 at half
 * spine bandwidth, 512, 512 at half spine bandwidth} GPUs), each asked
 * once cold per pass, plus 84 repeats drawn Zipf-style within each
 * size stratum. The seed orders the stream and picks the popular
 * questions; the strata keep the cost mix, and so the medians, the
 * same on every seed. Every pass runs on a fresh journaled engine, so
 * its counts repeat exactly; after it, fresh engines replay its
 * journal to answer (journal_ms).
 */

#include <algorithm>
#include <optional>
#include <set>

#include "exec/engine.h"
#include "obs/attrib/attribution.h"
#include "sys/machines.h"
#include "workloads.h"

namespace perfbench {

using namespace mlps;

namespace {

/** Latency limit of one answer for sustained_per_s, ms. */
constexpr double kAnswerLimitMs = 250.0;

struct Question {
    std::string spec;
    std::string workload;
    int gpus = 0;
    int stratum = 0; ///< 0: 64-128 GPUs, 1: 256, 2: 512
};

std::vector<Question>
universe()
{
    static const char *const kWorkloads[] = {
        "MLPf_Res50_TF", "MLPf_Res50_MX", "MLPf_SSD_Py", "MLPf_MRCNN_Py",
        "MLPf_XFMR_Py",  "MLPf_GNMT_Py",  "MLPf_NCF_Py",
    };
    struct Shape {
        int gpus;
        const char *nvlink; ///< C4140 (M): 4 SXM2 GPUs per host
        const char *pcie;   ///< DSS 8440: 8 PCIe GPUs per host
        bool half_spine;
        int stratum;
    };
    static const Shape kShapes[] = {
        {64, "4x4", "2x4", false, 0},  {128, "8x4", "4x4", false, 0},
        {256, "8x8", "4x8", false, 1}, {256, "8x8", "4x8", true, 1},
        {512, "16x8", "8x8", false, 2}, {512, "16x8", "8x8", true, 2},
    };
    std::vector<Question> out;
    for (const char *w : kWorkloads)
        for (int box = 0; box < 2; ++box)
            for (const Shape &s : kShapes) {
                Question q;
                q.spec = format("pod(%s,%s%s)",
                                box == 0 ? "C4140 (M)" : "DSS 8440",
                                box == 0 ? s.nvlink : s.pcie,
                                s.half_spine ? ",spines=1" : "");
                q.workload = w;
                q.gpus = s.gpus;
                q.stratum = s.stratum;
                out.push_back(q);
            }
    return out;
}

/**
 * One pass: every question once (first asks, seeded order) plus one
 * Zipf-drawn repeat per question of each stratum, each repeat placed
 * after its question's first ask.
 */
std::vector<std::size_t>
passSequence(const std::vector<Question> &qs, Rng &rng)
{
    struct Event {
        double key;
        std::size_t q;
    };
    std::vector<Event> events;
    std::vector<double> first(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
        first[i] = rng.uniform();
        events.push_back({first[i], i});
    }
    for (int stratum = 0; stratum < 3; ++stratum) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < qs.size(); ++i)
            if (qs[i].stratum == stratum)
                members.push_back(i);
        rng.shuffle(members); // rank order = popularity
        std::vector<double> w = zipfWeights(members.size(), 1.0);
        for (std::size_t r = 0; r < members.size(); ++r) {
            std::size_t q = members[rng.weighted(w)];
            events.push_back({first[q] + (1.0 - first[q]) * rng.uniform(),
                              q});
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.key < b.key;
                     });
    std::vector<std::size_t> seq;
    for (const Event &e : events)
        seq.push_back(e.q);
    return seq;
}

struct Answer {
    std::string json;
    bool cache_hit = false;
    bool ok = false;
    std::string error;
};

/** `mlpsim explain --json` for one question, through `engine`. */
Answer
ask(const Question &q, const core::Registry &registry,
    exec::Engine &engine)
{
    Answer a;
    exec::RunRequest req;
    {
        ScopedSpan s("sys.system_from_spec");
        if (!sys::systemFromSpec(q.spec, &req.system, &a.error))
            return a;
    }
    const core::Benchmark *b = registry.find(q.workload);
    if (!b) {
        a.error = "unknown workload " + q.workload;
        return a;
    }
    req.workload = b->spec();
    req.options.num_gpus = q.gpus;
    exec::RunResult res;
    {
        ScopedSpan s("exec.run_one");
        res = engine.runOne(req);
    }
    if (!res.ok()) {
        a.error = "run failed";
        return a;
    }
    a.cache_hit = res.cache_hit;
    obs::attrib::Attribution attribution;
    {
        ScopedSpan s("attrib.attribute_run");
        attribution = obs::attrib::attributeRun(req, res.train);
    }
    {
        ScopedSpan s("attrib.to_json");
        a.json = obs::attrib::toJson(attribution);
    }
    a.ok = true;
    return a;
}

} // namespace

Report
runPodWhatif(const Options &o)
{
    Report rep;
    Rng rng(o.seed);
    Tracer &tracer = Tracer::global();

    // Set-up before the first question, then after every fourth
    // answer, so setup_s is a median over the whole run.
    const std::string setup_dir = o.workdir + "/setup";
    std::optional<serve::Catalog> catalog;
    Samples setup;
    setup.add(timeSetup(setup_dir, &catalog));
    const core::Registry &registry = catalog->registry;

    const std::vector<Question> qs = universe();
    const std::vector<std::size_t> seq = passSequence(qs, rng);
    // Journal probes: every 256-GPU question at full spine bandwidth,
    // the same on every seed.
    std::vector<std::size_t> probes;
    for (std::size_t q = 0; q < qs.size(); ++q)
        if (qs[q].stratum == 1 && qs[q].spec.find("spines") ==
                                      std::string::npos)
            probes.push_back(q);

    Samples cold[2], warm[2], journal, control, all;
    std::vector<std::string> expected(qs.size());
    exec::EngineStats first{};
    Digest answers;
    std::uint32_t request = 0;
    std::size_t answered = 0;

    const RouteCacheDelta route_cache;
    double t_start = nowSeconds();
    int pass = 0;
    bool out_of_time = false;
    for (; !out_of_time; ++pass) {
        std::string dir = o.workdir + format("/pod-%d", pass);
        std::optional<exec::Engine> engine;
        engine.emplace(engineOptions(dir));
        std::set<std::size_t> seen;
        std::size_t done = 0;
        for (std::size_t q : seq) {
            if (pass > 0 && nowSeconds() - t_start >= o.seconds) {
                out_of_time = true;
                break;
            }
            int traced = o.trace && (request % 2 == 1) ? 1 : 0;
            tracer.setArmed(traced != 0);
            double t0 = nowSeconds();
            Answer a;
            {
                ScopedSpan root("pod_whatif.question", ++request);
                a = ask(qs[q], registry, *engine);
            }
            double ms = (nowSeconds() - t0) * 1e3;
            ++rep.attempted;
            ++done;
            bool repeat = !seen.insert(q).second;
            if (!a.ok) {
                rep.fail(qs[q].spec + " " + qs[q].workload + ": " + a.error);
                continue;
            }
            if (a.cache_hit != repeat)
                rep.fail(format("%s %s: cache_hit=%d on a %s ask",
                                qs[q].spec.c_str(), qs[q].workload.c_str(),
                                a.cache_hit ? 1 : 0,
                                repeat ? "repeat" : "first"));
            (a.cache_hit ? warm : cold)[traced].add(ms);
            all.add(ms);
            ++answered;
            if (expected[q].empty())
                expected[q] = a.json;
            else if (a.json != expected[q])
                rep.fail(format("%s %s: answer changed between asks",
                                qs[q].spec.c_str(), qs[q].workload.c_str()));
            if (pass == 0)
                answers.mix(a.json);

            control.add(controlOp(*engine));
            tracer.setArmed(false);
            ++rep.attempted;
            if (done % 4 == 0)
                setup.add(timeSetup(setup_dir));
        }
        tracer.setArmed(false);
        if (done == seq.size()) {
            exec::EngineStats st = engine->stats();
            if (pass == 0) {
                first = st;
                route_cache.record(rep);
            }
            else if (st.requests != first.requests ||
                     st.unique_runs != first.unique_runs ||
                     st.cache_hits != first.cache_hits)
                rep.fail(format("pass %d: engine counts moved", pass));
        }
        engine.reset();

        // Fresh engines replaying this pass's journal answer probes.
        for (std::size_t q : probes) {
            if (!seen.count(q))
                continue;
            double t0 = nowSeconds();
            Answer a;
            std::uint64_t loaded = 0, simulated = 0;
            {
                ScopedSpan root("pod_whatif.journal", ++request);
                std::optional<exec::Engine> replay;
                {
                    ScopedSpan s("exec.engine_open");
                    replay.emplace(engineOptions(dir));
                }
                a = ask(qs[q], registry, *replay);
                loaded = replay->stats().journal_loaded;
                simulated = replay->stats().unique_runs;
            }
            double ms = (nowSeconds() - t0) * 1e3;
            ++rep.attempted;
            if (!a.ok || a.json != expected[q] || simulated != 0 ||
                loaded == 0) {
                rep.fail(format("%s %s: journal answer wrong",
                                qs[q].spec.c_str(), qs[q].workload.c_str()));
                continue;
            }
            journal.add(ms);
            all.add(ms);
            ++answered;
            if (pass == 0)
                rep.counts["exec.journal_loaded"] = loaded;
        }
        removeTree(dir);
    }
    double elapsed = nowSeconds() - t_start;

    rep.answer_digest = answers.hex();
    rep.counts["exec.requests"] = first.requests;
    rep.counts["exec.unique_runs"] = first.unique_runs;
    rep.counts["exec.cache_hits"] = first.cache_hits;
    rep.counts["questions.per_pass"] = seq.size();
    rep.note(format("pod_whatif: %d passes (last may be partial), %zu "
                    "answers in %.2f s",
                    pass, answered, elapsed));

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
    rep.set("journal_ms", journal.median(), "ms");
    rep.setTail("tail_ms", all, 90.0);
    rep.setTail("control_tail_ms", control, 90.0);
    rep.set("answers_per_s", static_cast<double>(answered) / elapsed, "1/s");
    rep.set("sustained_per_s",
            static_cast<double>(all.countAtMost(kAnswerLimitMs)) / elapsed,
            "1/s");
    return rep;
}

} // namespace perfbench
