#include "sim/logger.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "sim/json.h"

namespace mlps::sim {

namespace {

// Atomic: worker threads (executor jobs, the serve loop) consult the
// level while tests and the CLI may adjust it; relaxed ordering is
// enough for a monotone verbosity gate.
std::atomic<LogLevel> g_level{LogLevel::Warn};

std::mutex g_structured_mu;
std::FILE *g_structured = nullptr;

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<std::size_t>(n));
    }
    va_end(ap2);
    return out;
}

double
monotonicUs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() -
                                                     epoch)
        .count();
}

bool
identChar(unsigned char c)
{
    return std::isalnum(c) || c == '_' || c == '.' || c == '-';
}

/**
 * Split the conventional "component: message" prefix: the component
 * must be a single identifier-ish token, else the whole string is the
 * message.
 */
void
splitComponent(const std::string &text, std::string *component,
               std::string *msg)
{
    std::size_t colon = text.find(": ");
    if (colon != std::string::npos && colon > 0 &&
        colon <= 32) { // long prefixes are prose, not components
        bool ident = true;
        for (std::size_t i = 0; i < colon; ++i)
            if (!identChar(static_cast<unsigned char>(text[i])))
                ident = false;
        if (ident) {
            *component = text.substr(0, colon);
            *msg = text.substr(colon + 2);
            return;
        }
    }
    component->clear();
    *msg = text;
}

/** Collect key=value tokens ("retries=3, backoff=0.5s") from a message. */
std::string
fieldsJson(const std::string &msg)
{
    std::string out;
    std::size_t i = 0;
    while (i < msg.size()) {
        // A key starts a token: preceded by start/space/'(' or ','.
        if (i > 0 && msg[i - 1] != ' ' && msg[i - 1] != '(' &&
            msg[i - 1] != ',') {
            ++i;
            continue;
        }
        std::size_t k = i;
        while (k < msg.size() &&
               (std::isalnum(static_cast<unsigned char>(msg[k])) ||
                msg[k] == '_'))
            ++k;
        if (k == i || k >= msg.size() || msg[k] != '=' ||
            k + 1 >= msg.size() || msg[k + 1] == ' ') {
            i = k + 1;
            continue;
        }
        std::size_t v = k + 1;
        while (v < msg.size() && msg[v] != ' ' && msg[v] != ',' &&
               msg[v] != ')')
            ++v;
        if (!out.empty())
            out += ", ";
        out += "\"" + jsonEscape(msg.substr(i, k - i)) + "\": \"" +
               jsonEscape(msg.substr(k + 1, v - k - 1)) + "\"";
        i = v + 1;
    }
    return out;
}

void
emitStructured(const char *level, const std::string &text)
{
    std::lock_guard<std::mutex> lock(g_structured_mu);
    if (!g_structured)
        return;
    std::string component, msg;
    splitComponent(text, &component, &msg);
    std::string fields = fieldsJson(msg);
    std::fprintf(g_structured,
                 "{\"ts_us\": %.1f, \"level\": \"%s\", "
                 "\"component\": \"%s\", \"msg\": \"%s\"",
                 monotonicUs(), level,
                 jsonEscape(component).c_str(),
                 jsonEscape(msg).c_str());
    if (!fields.empty())
        std::fprintf(g_structured, ", \"fields\": {%s}",
                     fields.c_str());
    std::fprintf(g_structured, "}\n");
    std::fflush(g_structured);
}

void
emit(const char *tag, const char *fmt, std::va_list ap)
{
    std::string msg = vformat(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    emitStructured(tag, msg);
}

} // namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

void
setStructuredLogFile(const std::string &path)
{
    std::FILE *next = nullptr;
    if (!path.empty()) {
        next = std::fopen(path.c_str(), "w");
        if (!next)
            fatal("structured log '%s': cannot open for writing",
                  path.c_str());
    }
    std::lock_guard<std::mutex> lock(g_structured_mu);
    if (g_structured)
        std::fclose(g_structured);
    g_structured = next;
}

bool
structuredLogEnabled()
{
    std::lock_guard<std::mutex> lock(g_structured_mu);
    return g_structured != nullptr;
}

void
inform(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Info)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("info", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Warn)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

void
debug(const char *fmt, ...)
{
    if (g_level.load(std::memory_order_relaxed) < LogLevel::Debug)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    emit("debug", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitStructured("fatal", msg);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    emitStructured("panic", msg);
    std::abort();
}

} // namespace mlps::sim
