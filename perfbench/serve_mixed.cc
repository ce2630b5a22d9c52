/**
 * @file
 * serve_mixed: open loop over TCP against serve::runTcpServer, which
 * runs in this process on its own thread with one engine worker and
 * starts on a pre-built journal of box-scale points.
 *
 * Arrivals are seeded Poisson. A short ladder of fixed rates comes
 * first (sustained_per_s), then the measurement phase at one fixed
 * rate. The mix: mostly box-scale `run` requests with Zipf popularity
 * (journal hits), a few distinct pod-scale requests (misses that
 * simulate on the server's poll thread), and `ping`/`stats` verbs on a
 * second connection. Every latency is timed from the request's due
 * time, and every result line is checked against a local engine.
 */

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <optional>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "exec/engine.h"
#include "obs/registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using namespace mlps;

namespace {

/** Ladder rates, requests per second. */
const double kLadder[] = {100.0, 200.0, 400.0, 800.0};
/** Rate of the measurement phase, requests per second. */
constexpr double kMeasureRate = 400.0;
/**
 * Every 11th to 13th arrival (seeded) is a distinct pod-scale run, 8%
 * of arrivals. Spacing them, instead of drawing each arrival's kind
 * independently, keeps the number of back-to-back pod misses — which
 * alone set the p99 — from varying run to run.
 */
constexpr std::size_t kPodGapMin = 11;
constexpr std::size_t kPodGapSpread = 3;
/** Share of the other arrivals that are ping/stats verbs (13% of all). */
constexpr double kControlShare = 0.142;
/** The ladder's tail latency limit, ms. */
constexpr double kLadderLimitMs = 100.0;
/** Server start-ups before and again after the open loop. */
constexpr int kServerSetupReps = 8;
/** Journal probes after each start-up but the serving one. */
constexpr int kJournalProbes = 3;
/** Grace after the last due time before unanswered requests fail, s. */
constexpr double kDrainGraceS = 30.0;

const char *const kBoxes4[] = {"T640", "C4140 (B)", "C4140 (K)",
                               "C4140 (M)", "R940xa"};
const char *const kPodWorkloads[] = {
    "MLPf_Res50_TF", "MLPf_Res50_MX", "MLPf_SSD_Py",   "MLPf_MRCNN_Py",
    "MLPf_XFMR_Py",  "MLPf_GNMT_Py",  "MLPf_NCF_Py",   "Dawn_Res18_Py",
    "Dawn_DrQA_Py",
};
const char *const kBuiltins[] = {
    "MLPf_Res50_TF", "MLPf_Res50_MX", "MLPf_SSD_Py",  "MLPf_MRCNN_Py",
    "MLPf_XFMR_Py",  "MLPf_GNMT_Py",  "MLPf_NCF_Py",  "Dawn_Res18_Py",
    "Dawn_DrQA_Py",  "Deep_GEMM_Cu",  "Deep_Conv_Cu", "Deep_RNN_Cu",
    "Deep_Red_Cu",
};

std::string
runLine(const std::string &id, const std::string &workload,
        const std::string &system, int gpus, const char *precision)
{
    return format("{\"type\":\"run\",\"id\":\"%s\",\"workload\":\"%s\","
                  "\"system\":\"%s\",\"gpus\":%d,\"precision\":\"%s\"}",
                  id.c_str(), workload.c_str(), system.c_str(), gpus,
                  precision);
}

struct Point {
    std::string workload;
    std::string system;
    int gpus = 1;
    const char *precision = "mixed";
};

std::vector<Point>
boxPoints()
{
    std::vector<Point> out;
    for (const char *w : kBuiltins)
        for (int b = 0; b < 6; ++b) {
            std::string box = b < 5 ? kBoxes4[b] : "DSS 8440";
            for (int g = 1; g <= (b < 5 ? 4 : 8); g *= 2)
                for (const char *p : {"mixed", "fp32"})
                    out.push_back({w, box, g, p});
        }
    return out;
}

/**
 * Distinct pod-scale points, all at 128 GPUs so the misses cost about
 * the same: 9 training workloads x 3 precisions x healthy or half
 * spine bandwidth x every two-or-more-rack shape of 32 four-GPU hosts
 * (five boxes) or 16 eight-GPU hosts (DSS 8440). Shuffled by the seed.
 */
std::vector<Point>
podPool(Rng &rng)
{
    static const char *const kShapes4[] = {"2x16", "4x8", "8x4", "16x2"};
    static const char *const kShapes8[] = {"2x8", "4x4", "8x2"};
    std::vector<Point> pts;
    for (int b = 0; b < 6; ++b) {
        std::string box = b < 5 ? kBoxes4[b] : "DSS 8440";
        std::vector<const char *> shapes(b < 5 ? std::begin(kShapes4)
                                               : std::begin(kShapes8),
                                         b < 5 ? std::end(kShapes4)
                                               : std::end(kShapes8));
        for (const char *shape : shapes)
            for (const char *w : kPodWorkloads)
                for (const char *p : {"mixed", "fp32", "fp16"})
                    for (int spines : {2, 1})
                        pts.push_back(
                            {w,
                             format("pod(%s,%s%s)", box.c_str(), shape,
                                    spines == 1 ? ",spines=1" : ""),
                             128, p});
    }
    rng.shuffle(pts);
    return pts;
}

// ---- TCP client pieces -----------------------------------------------

struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
};

int
connectTo(int port, std::string *error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        *error = std::strerror(errno);
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Blocking read of the greeting line. */
bool
readHello(int fd, std::string *error)
{
    std::string line;
    char c;
    while (true) {
        ssize_t n = ::read(fd, &c, 1);
        if (n <= 0) {
            *error = "connection closed before hello";
            return false;
        }
        if (c == '\n')
            break;
        line.push_back(c);
    }
    serve::Response r;
    if (!serve::decodeResponse(line, &r, error) || r.type != "hello") {
        *error = "bad hello: " + line;
        return false;
    }
    return true;
}

bool
flush(Conn &c)
{
    while (!c.out.empty()) {
        ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            return false;
        }
        c.out.erase(0, static_cast<std::size_t>(n));
    }
    return true;
}

/** Line index from an id "r<k>" / "c<k>"; -1 when absent. */
long
lineIndex(const std::string &line)
{
    std::size_t p = line.find("\"id\":\"");
    if (p == std::string::npos || p + 7 > line.size())
        return -1;
    return std::strtol(line.c_str() + p + 7, nullptr, 10);
}

/** One runTcpServer on its own thread. */
class Server
{
  public:
    Server() = default;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;
    ~Server() { stop(); }

    bool
    start(const serve::TcpServerConfig &cfg, std::string *error)
    {
        std::error_code ec;
        std::filesystem::remove(cfg.port_file, ec);
        thread_ = std::thread([this, cfg] {
            rc_ = serve::runTcpServer(cfg, [this](serve::ServeCore &core) {
                stats_ = core.engine().stats();
            });
            exited_ = true;
        });
        for (double t0 = nowSeconds();
             nowSeconds() - t0 < 60.0 && !exited_;) {
            std::ifstream in(cfg.port_file);
            if (in >> port_ && port_ > 0)
                return true;
            ::usleep(200);
        }
        *error = "server did not write its port file";
        return false;
    }

    /** SIGTERM drains the server; then restore default handlers. */
    int
    stop()
    {
        if (!thread_.joinable())
            return rc_;
        // Only a running loop has its handler installed; a loop that
        // already returned needs no signal.
        if (!exited_)
            ::kill(::getpid(), SIGTERM);
        thread_.join();
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        return rc_;
    }

    int port() const { return port_; }
    const exec::EngineStats &stats() const { return stats_; }

  private:
    std::thread thread_;
    std::atomic<bool> exited_{false};
    int port_ = 0;
    int rc_ = 0;
    exec::EngineStats stats_;
};

void
copyTree(const std::string &from, const std::string &to)
{
    removeTree(to);
    std::error_code ec;
    std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                          ec);
}

} // namespace

// ---- the plan ----------------------------------------------------------

std::vector<std::string>
boxUniverseLines()
{
    std::vector<std::string> out;
    std::size_t k = 0;
    for (const Point &p : boxPoints())
        out.push_back(runLine(format("b%zu", k++), p.workload, p.system,
                              p.gpus, p.precision));
    return out;
}

serve::ServeConfig
serveConfig(const std::string &journal_dir)
{
    serve::ServeConfig cfg;
    cfg.exec = engineOptions(journal_dir);
    // One open-loop client must never be rate-limited or shed.
    cfg.admission.rate = 1e9;
    cfg.admission.burst = 1e9;
    cfg.admission.max_queued = 1u << 20;
    return cfg;
}

ServePlan
planServeMixed(std::uint64_t seed, double seconds)
{
    Rng rng(seed);
    ServePlan plan;
    std::vector<Point> box = boxPoints();
    std::vector<std::size_t> popularity(box.size());
    for (std::size_t i = 0; i < box.size(); ++i)
        popularity[i] = i;
    rng.shuffle(popularity);
    const std::vector<double> zipf = zipfWeights(box.size(), 1.0);
    const std::vector<Point> pods = podPool(rng);
    std::size_t pod_count = 0;
    std::size_t until_pod = 1 + rng.below(kPodGapMin + kPodGapSpread - 1);

    const std::size_t steps = std::size(kLadder);
    const double step_s = std::max(0.5, 0.05 * seconds);
    const double gap_s = 0.25;
    const double measure_s =
        std::max(1.0, seconds - static_cast<double>(steps) * (step_s + gap_s));

    double start = 0.0;
    for (std::size_t ph = 0; ph <= steps; ++ph) {
        ServePhase phase;
        phase.rate = ph < steps ? kLadder[ph] : kMeasureRate;
        phase.start_s = start;
        phase.end_s = start + (ph < steps ? step_s : measure_s);
        phase.begin = plan.lines.size();
        for (double t = start + rng.exponential(phase.rate); t < phase.end_s;
             t += rng.exponential(phase.rate)) {
            ServeLine l;
            l.due_s = t;
            std::size_t k = plan.lines.size();
            if (--until_pod == 0) {
                until_pod = kPodGapMin + rng.below(kPodGapSpread);
                l.kind = ServeLine::PodRun;
                const Point &p = pods[pod_count++ % pods.size()];
                l.id = format("r%zu", k);
                l.text = runLine(l.id, p.workload, p.system, p.gpus,
                                 p.precision);
            } else if (rng.uniform() < kControlShare) {
                l.kind = rng.uniform() < 0.5 ? ServeLine::Ping
                                             : ServeLine::Stats;
                l.id = format("c%zu", k);
                l.text = format("{\"type\":\"%s\",\"id\":\"%s\"}",
                                l.kind == ServeLine::Ping ? "ping" : "stats",
                                l.id.c_str());
            } else {
                l.kind = ServeLine::BoxRun;
                const Point &p = box[popularity[rng.weighted(zipf)]];
                l.id = format("r%zu", k);
                l.text = runLine(l.id, p.workload, p.system, p.gpus,
                                 p.precision);
            }
            plan.lines.push_back(std::move(l));
        }
        phase.end = plan.lines.size();
        plan.phases.push_back(phase);
        start = phase.end_s + (ph < steps ? gap_s : 0.0);
    }
    return plan;
}

void
prebuildServeJournal(const std::string &dir)
{
    serve::Catalog catalog;
    exec::Engine engine(engineOptions(dir));
    std::vector<exec::RunRequest> batch;
    for (const std::string &line : boxUniverseLines()) {
        serve::ParsedRequest parsed;
        std::string error;
        if (!serve::parseRequest(line, catalog, &parsed, &error))
            throw std::runtime_error("box request rejected: " + error);
        batch.push_back(parsed.run);
    }
    engine.run(std::move(batch));
    if (!engine.degradedRuns().empty())
        throw std::runtime_error("a box-scale point failed to simulate");
}

// ---- the workload ----------------------------------------------------

Report
runServeMixed(const Options &o)
{
    Report rep;
    const ServePlan plan = planServeMixed(o.seed, o.seconds);
    const std::vector<ServeLine> &lines = plan.lines;
    const std::size_t n = lines.size();

    // Input state: the journal a previous server lifetime left behind.
    const std::string journal_base = o.workdir + "/serve-journal-base";
    const std::string journal_dir = o.workdir + "/serve-journal";
    double j0 = nowSeconds();
    prebuildServeJournal(journal_base);
    rep.note(format("serve_mixed: pre-built journal of %zu box points in "
                    "%.3f s (input state, not set-up)",
                    boxUniverseLines().size(), nowSeconds() - j0));
    copyTree(journal_base, journal_dir);

    // Set-up: catalog, server (engine + journal replay + listening
    // socket) and two connected clients that have read their hello.
    // Half the start-ups run before the open loop (the last one serves
    // it), half after it on a fresh copy of the same journal.
    serve::TcpServerConfig tcp;
    tcp.port_file = o.workdir + "/serve.port";
    tcp.core = serveConfig(journal_dir);
    Samples setup, journal;
    std::optional<serve::Catalog> catalog;
    std::optional<Server> server;
    Conn run_conn, ctl_conn;
    auto closeAll = [&] {
        for (Conn *c : {&run_conn, &ctl_conn})
            if (c->fd >= 0) {
                ::close(c->fd);
                c->fd = -1;
            }
        server.reset();
    };
    auto setUp = [&]() -> bool {
        closeAll();
        std::string error;
        double t0 = nowSeconds();
        catalog.emplace();
        server.emplace();
        bool ok = server->start(tcp, &error);
        if (ok) {
            run_conn.fd = connectTo(server->port(), &error);
            ctl_conn.fd = run_conn.fd < 0 ? -1
                                          : connectTo(server->port(), &error);
            ok = ctl_conn.fd >= 0 && readHello(run_conn.fd, &error) &&
                 readHello(ctl_conn.fd, &error);
        }
        setup.add(nowSeconds() - t0);
        ++rep.attempted;
        if (!ok)
            rep.fail("server set-up: " + error);
        return ok;
    };
    // journal_ms: a fresh engine replays the pre-built journal and
    // answers one box request from it (the server's restart path).
    const std::vector<std::string> box_lines = boxUniverseLines();
    Rng pick(o.seed + 1);
    auto journalProbe = [&] {
        serve::ParsedRequest parsed;
        std::string error;
        serve::parseRequest(box_lines[pick.below(box_lines.size())],
                            *catalog, &parsed, &error);
        double t0 = nowSeconds();
        exec::RunResult r;
        std::uint64_t simulated;
        {
            exec::Engine replay(engineOptions(journal_base));
            r = replay.runOne(parsed.run);
            simulated = replay.stats().unique_runs;
        }
        journal.add((nowSeconds() - t0) * 1e3);
        ++rep.attempted;
        if (simulated != 0 || !r.from_journal)
            rep.fail("journal replay did not answer from the journal");
    };
    for (int k = 0; k < kServerSetupReps; ++k) {
        if (!setUp())
            return rep;
        if (k + 1 < kServerSetupReps)
            for (int j = 0; j < kJournalProbes; ++j)
                journalProbe();
    }
    for (Conn *c : {&run_conn, &ctl_conn})
        ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);

    const RouteCacheDelta route_cache;

    // The open loop.
    std::vector<double> sent(n, -1.0), recv(n, -1.0);
    std::vector<std::size_t> backlog_at_send(n, 0);
    std::vector<std::string> resp(n);
    std::size_t next = 0, received = 0, outstanding = 0;
    const double last_due = n ? lines.back().due_s : 0.0;
    const double base = nowSeconds();
    bool broken = false;
    while (received < n && !broken) {
        double now = nowSeconds() - base;
        while (next < n && lines[next].due_s <= now) {
            Conn &c = lines[next].isRun() ? run_conn : ctl_conn;
            c.out += lines[next].text;
            c.out += '\n';
            sent[next] = now;
            backlog_at_send[next] = outstanding;
            ++outstanding;
            ++next;
        }
        if (!flush(run_conn) || !flush(ctl_conn)) {
            rep.fail("send failed: " + std::string(std::strerror(errno)));
            break;
        }
        if (now > last_due + kDrainGraceS) {
            rep.fail(format("%zu request(s) unanswered %.0f s after the "
                            "last was due",
                            n - received, kDrainGraceS));
            break;
        }
        pollfd fds[2] = {
            {run_conn.fd,
             static_cast<short>(POLLIN | (run_conn.out.empty() ? 0 : POLLOUT)),
             0},
            {ctl_conn.fd,
             static_cast<short>(POLLIN | (ctl_conn.out.empty() ? 0 : POLLOUT)),
             0},
        };
        double wait = next < n ? std::max(0.0, lines[next].due_s - now) : 0.05;
        timespec ts{static_cast<time_t>(wait),
                    static_cast<long>((wait - std::floor(wait)) * 1e9)};
        if (::ppoll(fds, 2, &ts, nullptr) < 0 && errno != EINTR) {
            rep.fail("poll failed");
            break;
        }
        for (int i = 0; i < 2; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = i == 0 ? run_conn : ctl_conn;
            char buf[65536];
            ssize_t got = ::read(c.fd, buf, sizeof(buf));
            if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
                rep.fail("server closed the connection");
                broken = true;
                break;
            }
            if (got < 0)
                continue;
            double at = nowSeconds() - base;
            c.in.append(buf, static_cast<std::size_t>(got));
            std::size_t pos;
            while ((pos = c.in.find('\n')) != std::string::npos) {
                std::string line = c.in.substr(0, pos);
                c.in.erase(0, pos + 1);
                long k = lineIndex(line);
                if (k < 0 || static_cast<std::size_t>(k) >= n ||
                    recv[static_cast<std::size_t>(k)] >= 0.0) {
                    rep.fail("unexpected response: " + line.substr(0, 120));
                    continue;
                }
                recv[static_cast<std::size_t>(k)] = at;
                resp[static_cast<std::size_t>(k)] = std::move(line);
                ++received;
                --outstanding;
            }
        }
    }
    for (Conn *c : {&run_conn, &ctl_conn}) {
        ::close(c->fd);
        c->fd = -1;
    }
    if (server->stop() != 0)
        rep.fail("server did not drain cleanly");
    const exec::EngineStats server_stats = server->stats();
    server.reset();
    route_cache.record(rep);

    // Check every answer against a local engine.
    exec::Engine local(engineOptions(""));
    Digest answers;
    std::size_t pods = 0, boxes = 0, controls = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const ServeLine &l = lines[k];
        ++rep.attempted;
        if (recv[k] < 0.0) {
            rep.fail(l.id + ": no answer");
            continue;
        }
        serve::Response r;
        std::string error;
        if (!serve::decodeResponse(resp[k], &r, &error)) {
            rep.fail(l.id + ": undecodable answer: " + error);
            continue;
        }
        if (!l.isRun()) {
            ++controls;
            const char *want = l.kind == ServeLine::Ping ? "pong" : "stats";
            if (r.type != want)
                rep.fail(l.id + ": expected " + want + ", got " + r.type);
            continue;
        }
        (l.kind == ServeLine::PodRun ? pods : boxes) += 1;
        if (r.type != "result" || r.status != "ok") {
            rep.fail(l.id + ": status " + r.status + " " + r.what);
            continue;
        }
        serve::ParsedRequest parsed;
        if (!serve::parseRequest(l.text, *catalog, &parsed, &error)) {
            rep.fail(l.id + ": local parse: " + error);
            continue;
        }
        exec::RunResult mine = local.runOne(parsed.run);
        std::string canonical = serve::canonicalResultLine(r.train);
        if (canonical != serve::canonicalResultLine(mine.train))
            rep.fail(l.id + ": answer differs from a local engine");
        answers.mix(l.id);
        answers.mix(canonical);
    }
    rep.answer_digest = answers.hex();
    rep.counts["lines"] = n;
    rep.counts["lines.pod_runs"] = pods;
    rep.counts["lines.box_runs"] = boxes;
    rep.counts["lines.control"] = controls;
    rep.counts["exec.requests"] = server_stats.requests;
    rep.counts["exec.unique_runs"] = server_stats.unique_runs;
    rep.counts["exec.cache_hits"] = server_stats.cache_hits;
    rep.counts["exec.journal_loaded"] = server_stats.journal_loaded;

    // Latencies from the due time.
    auto latencyMs = [&](std::size_t k) {
        return (recv[k] - lines[k].due_s) * 1e3;
    };
    Samples late;
    for (std::size_t k = 0; k < n; ++k)
        if (sent[k] >= 0.0)
            late.add((sent[k] - lines[k].due_s) * 1e3);
    rep.note(format("serve_mixed: generator late p50 %.3f ms, p99 %.3f ms, "
                    "max %.3f ms over %zu sends",
                    late.median(), late.percentile(99.0),
                    late.percentile(100.0), late.size()));
    rep.set("load.generator_late_ms", late.percentile(99.0), "ms");

    // Throughput is answers over the time from a phase's start to its
    // last answer.
    auto lastAnswer = [&](const ServePhase &p) {
        double last = p.end_s;
        for (std::size_t k = p.begin; k < p.end; ++k)
            if (lines[k].isRun())
                last = std::max(last, recv[k]);
        return last;
    };

    // The ladder: highest step whose tail meets the limit with no
    // growing backlog. A step's percentile leaves >= 10 samples beyond.
    double sustained = 0.0;
    for (std::size_t ph = 0; ph + 1 < plan.phases.size(); ++ph) {
        const ServePhase &p = plan.phases[ph];
        Samples lat;
        bool all_answered = true;
        for (std::size_t k = p.begin; k < p.end; ++k) {
            if (!lines[k].isRun())
                continue;
            if (recv[k] < 0.0)
                all_answered = false;
            else
                lat.add(latencyMs(k));
        }
        double pct = 50.0;
        for (double level : {90.0, 95.0, 99.0})
            if (static_cast<double>(lat.size()) * (1.0 - level / 100.0) >= 10.0)
                pct = level;
        double tail = lat.percentile(pct);
        std::size_t backlog = p.end > p.begin ? backlog_at_send[p.end - 1] : 0;
        bool stable = static_cast<double>(backlog) <=
                      std::max(8.0, p.rate * kLadderLimitMs / 1e3);
        bool pass = all_answered && stable && tail <= kLadderLimitMs;
        double achieved = static_cast<double>(lat.size()) /
                          (lastAnswer(p) - p.start_s);
        rep.note(format("ladder %.0f/s: p%g %.3f ms (n=%zu), backlog %zu, "
                        "%.1f answers/s, %s",
                        p.rate, pct, tail, lat.size(), backlog, achieved,
                        pass ? "meets the limit" : "misses the limit"));
        if (pass)
            sustained = std::max(sustained, achieved);
    }

    const ServePhase &m = plan.phases.back();
    Samples cold, warm, all, control, pod_sim, pod_rest;
    Samples cold_split[2], warm_split[2];
    for (std::size_t k = m.begin; k < m.end; ++k) {
        if (recv[k] < 0.0)
            continue;
        double ms = latencyMs(k);
        switch (lines[k].kind) {
        case ServeLine::PodRun: {
            std::size_t p = resp[k].find("\"wall_ms\":");
            double sim = p == std::string::npos
                             ? 0.0
                             : std::strtod(resp[k].c_str() + p + 10, nullptr);
            pod_sim.add(sim);
            pod_rest.add(ms - sim);
        }
            cold.add(ms);
            cold_split[k % 2].add(ms);
            all.add(ms);
            break;
        case ServeLine::BoxRun:
            warm.add(ms);
            warm_split[k % 2].add(ms);
            all.add(ms);
            break;
        default:
            control.add(ms);
        }
    }
    std::size_t answered = all.size();
    rep.note(format("serve_mixed: pod misses: simulation p50 %.3f ms, the "
                    "rest (queue, poll loop, network) p50 %.3f ms",
                    pod_sim.median(), pod_rest.median()));

    if (o.trace) {
        // Client-side request spans, due -> answer, on every other line.
        Tracer &tracer = Tracer::global();
        tracer.setArmed(true);
        for (std::size_t k = m.begin; k < m.end; k += 2) {
            if (recv[k] < 0.0)
                continue;
            tracer.record("serve.request", base + lines[k].due_s,
                          base + recv[k], static_cast<std::uint32_t>(k + 1));
        }
        tracer.setArmed(false);
        // Spans are recorded after the fact, so the traced (even) and
        // untraced (odd) halves differ only by noise.
        rep.set("trace.overhead_ms.cold",
                cold_split[0].median() - cold_split[1].median(), "ms");
        rep.set("trace.overhead_ms.warm",
                warm_split[0].median() - warm_split[1].median(), "ms");
        return rep;
    }

    // The other half of the start-ups and journal probes.
    copyTree(journal_base, journal_dir);
    for (int k = 0; k < kServerSetupReps; ++k) {
        if (!setUp())
            return rep;
        for (int j = 0; j < kJournalProbes; ++j)
            journalProbe();
    }
    closeAll();
    removeTree(journal_base);
    removeTree(journal_dir);

    rep.note(format("serve_mixed: runs p50/p90/p95/p99 %.3f/%.3f/%.3f/%.3f "
                    "ms; control %.3f/%.3f/%.3f/%.3f ms",
                    all.median(), all.percentile(90.0), all.percentile(95.0),
                    all.percentile(99.0), control.median(),
                    control.percentile(90.0), control.percentile(95.0),
                    control.percentile(99.0)));
    rep.set("setup_s", setup.median(), "s");
    rep.set("cold_ms", cold.median(), "ms");
    rep.set("warm_ms", warm.median(), "ms");
    rep.set("journal_ms", journal.median(), "ms");
    // p95, not p99: the p99 (about 80 samples beyond) moves with how
    // often the host preempts the server or client thread for a few ms
    // (steal time), and spread past 0.25 over ten seeds.
    rep.setTail("tail_ms", all, 95.0);
    rep.setTail("control_tail_ms", control, 99.0);
    rep.set("answers_per_s",
            static_cast<double>(answered) / (lastAnswer(m) - m.start_s),
            "1/s");
    rep.set("sustained_per_s", sustained, "1/s");
    return rep;
}

} // namespace perfbench
