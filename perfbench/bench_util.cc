#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace perfbench {

namespace {

std::int64_t
nowNanos()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<double>
sorted(const std::vector<double> &v)
{
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    return s;
}

/** Zero-based index of the nearest-rank percentile in n samples. */
std::size_t
rankIndex(std::size_t n, double pct)
{
    double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
    return std::min(r, n) - 1;
}

} // namespace

double
nowSeconds()
{
    return static_cast<double>(nowNanos()) * 1e-9;
}

// ---- Samples ---------------------------------------------------------

double
Samples::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double
Samples::median() const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> s = sorted(values_);
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
Samples::percentile(double pct) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> s = sorted(values_);
    return s[rankIndex(s.size(), pct)];
}

std::size_t
Samples::countAtMost(double limit) const
{
    return static_cast<std::size_t>(
        std::count_if(values_.begin(), values_.end(),
                      [limit](double v) { return v <= limit; }));
}

std::size_t
Samples::beyond(double pct) const
{
    if (values_.empty())
        return 0;
    return values_.size() - 1 - rankIndex(values_.size(), pct);
}

// ---- Rng -------------------------------------------------------------

Rng::Rng(std::uint64_t seed) : state_(seed ^ 0x6a09e667f3bcc909ULL) {}

std::uint64_t
Rng::next()
{
    // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

double
Rng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

std::size_t
Rng::weighted(const std::vector<double> &weights)
{
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (u < weights[i])
            return i;
        u -= weights[i];
    }
    return weights.size() - 1;
}

std::vector<double>
zipfWeights(std::size_t n, double s)
{
    std::vector<double> w(n);
    for (std::size_t k = 0; k < n; ++k)
        w[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    return w;
}

// ---- Digest ----------------------------------------------------------

void
Digest::mix(const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    // Separator, so ("ab","c") and ("a","bc") differ.
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
}

std::string
Digest::hex() const
{
    return format("%016llx", static_cast<unsigned long long>(h_));
}

// ---- Tracer ----------------------------------------------------------

Tracer &
Tracer::global()
{
    static Tracer t;
    return t;
}

std::int32_t
Tracer::begin(const char *name, std::uint32_t request)
{
    SpanRecord r;
    r.name = name;
    r.start_ns = nowNanos();
    r.parent = current_;
    r.request = (request == 0 && current_ >= 0)
                    ? spans_[static_cast<std::size_t>(current_)].request
                    : request;
    spans_.push_back(r);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
}

void
Tracer::end(std::int32_t index)
{
    SpanRecord &r = spans_[static_cast<std::size_t>(index)];
    r.end_ns = nowNanos();
    current_ = r.parent;
}

void
Tracer::record(const char *name, double start_s, double end_s,
               std::uint32_t request)
{
    if (!armed_)
        return;
    SpanRecord r;
    r.name = name;
    r.start_ns = static_cast<std::int64_t>(start_s * 1e9);
    r.end_ns = static_cast<std::int64_t>(end_s * 1e9);
    r.parent = current_;
    r.request = request;
    spans_.push_back(r);
}

std::map<std::string, std::pair<double, std::size_t>>
Tracer::selfTimes() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord &r : spans_)
        if (r.parent >= 0)
            child_ns[static_cast<std::size_t>(r.parent)] +=
                r.end_ns - r.start_ns;
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &r = spans_[i];
        auto &slot = out[r.name];
        slot.first += static_cast<double>(r.end_ns - r.start_ns -
                                          child_ns[i]) * 1e-6;
        slot.second += 1;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &r = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                     "\"parent\":%d,\"request\":%u}}\n",
                     i ? "," : "", r.name,
                     static_cast<double>(r.start_ns - origin) * 1e-3,
                     static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                     r.parent, r.request);
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, std::uint32_t request)
{
    Tracer &t = Tracer::global();
    if (t.armed())
        index_ = t.begin(name, request);
}

ScopedSpan::~ScopedSpan()
{
    if (index_ >= 0)
        Tracer::global().end(index_);
}

// ---- Report ----------------------------------------------------------

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (notes.size() < 200)
        notes.push_back("FAILED: " + why);
}

void
Report::setTail(const std::string &name, const Samples &s, double pct)
{
    set(name, s.percentile(pct), "ms");
    note(format("%s: p%g of n=%zu (%zu beyond)", name.c_str(), pct,
                s.size(), s.beyond(pct)));
}

// ---- misc ------------------------------------------------------------

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[1024];
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0)
        return {};
    if (static_cast<std::size_t>(n) < sizeof(buf))
        return std::string(buf, static_cast<std::size_t>(n));
    std::string out(static_cast<std::size_t>(n) + 1, '\0');
    va_start(ap, fmt);
    std::vsnprintf(out.data(), out.size(), fmt, ap);
    va_end(ap);
    out.resize(static_cast<std::size_t>(n));
    return out;
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return !ec;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
