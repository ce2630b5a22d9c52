/**
 * @file
 * Shared pieces of the perfbench program: the wall clock, order
 * statistics, the seeded generator, the answer digest, the in-memory
 * span recorder and the per-run report every workload fills.
 *
 * Everything here lives in the benchmark, outside the program: spans
 * are recorded around calls into mlpsim's public functions, never
 * inside them.
 */

#ifndef PERFBENCH_BENCH_UTIL_H
#define PERFBENCH_BENCH_UTIL_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, seconds. */
double nowSeconds();

/** A sample of measurements and its order statistics. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double sum() const;
    /** Middle value (mean of the two middle values when n is even). */
    double median() const;
    /** Nearest-rank percentile, `pct` in (0, 100]. */
    double percentile(double pct) const;
    /** Samples no larger than `limit`. */
    std::size_t countAtMost(double limit) const;
    /** Samples strictly above the nearest-rank percentile. */
    std::size_t beyond(double pct) const;

  private:
    std::vector<double> values_;
};

/**
 * Seeded generator with hand-written distributions, so the same seed
 * gives the same inputs on every standard library.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed);
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n);
    /** Exponential with the given rate (mean 1/rate). */
    double exponential(double rate);
    /** Index drawn with probability proportional to `weights`. */
    std::size_t weighted(const std::vector<double> &weights);

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Zipf weights 1/(k+1)^s for ranks 0..n-1. */
std::vector<double> zipfWeights(std::size_t n, double s);

/** FNV-1a digest over a sequence of byte strings. */
class Digest
{
  public:
    void mix(const std::string &bytes);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One recorded span: name, start, end, parent and request id. */
struct SpanRecord {
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t request = 0;
};

/**
 * In-memory span recorder for the traced run. Disarmed, a span costs
 * one branch. Spans nest per thread of the caller; the benchmark
 * records them only from its own (single) calling thread.
 */
class Tracer
{
  public:
    static Tracer &global();

    bool armed() const { return armed_; }
    void setArmed(bool on) { armed_ = on; }

    std::int32_t begin(const char *name, std::uint32_t request);
    void end(std::int32_t index);
    /**
     * Record a finished span measured elsewhere (times in
     * nowSeconds()), under the current span.
     */
    void record(const char *name, double start_s, double end_s,
                std::uint32_t request);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /**
     * Per span name: summed self time (duration minus the part its
     * children cover), milliseconds, and the span count.
     */
    std::map<std::string, std::pair<double, std::size_t>> selfTimes() const;

    /** Write every span as a Chrome-trace JSON array. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool armed_ = false;
    std::int32_t current_ = -1;
    std::vector<SpanRecord> spans_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::uint32_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int32_t index_ = -1;
};

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for journals and port files (inside the checkout). */
    std::string workdir;
    /** Chrome-trace output of the traced run; empty = none. */
    std::string trace_out;
};

/** What one workload run reports. */
struct Report {
    struct Metric {
        double value = 0.0;
        std::string unit;
    };

    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Exact counts that must repeat for the same seed. */
    std::map<std::string, std::uint64_t> counts;
    /** Digest of every answer; must repeat for the same seed. */
    std::string answer_digest;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    void set(const std::string &name, double value,
             const std::string &unit);
    /** Count one failed operation and say why. */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
    /**
     * Set a tail metric at a fixed percentile and note the percentile,
     * the sample count and how many samples lie beyond it.
     */
    void setTail(const std::string &name, const Samples &s, double pct);
};

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Create a directory and its parents; false on failure. */
bool makeDirs(const std::string &path);

/** Remove a directory tree (best effort). */
void removeTree(const std::string &path);

/** Median time of `reps` calls of fn, seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    Samples s;
    for (int i = 0; i < reps; ++i) {
        double t0 = nowSeconds();
        fn();
        s.add(nowSeconds() - t0);
    }
    return s.median();
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_H
