#include "obs/trace_json.h"

#include <cctype>
#include <cstdio>
#include <cstring>

#include "sim/json.h"

namespace mlps::obs {

void
appendTraceEvent(std::ostream &os, const std::string &name,
                 const std::string &track, const char *cat,
                 double ts_us, double dur_us, int pid)
{
    os << "{\"name\": \"" << sim::jsonEscape(name) << "\", \"cat\": \""
       << cat << "\", \"ph\": \"X\", \"ts\": " << ts_us
       << ", \"dur\": " << dur_us << ", \"pid\": " << pid
       << ", \"tid\": \"" << sim::jsonEscape(track) << "\"}";
}

void
appendTraceEventTid(std::ostream &os, const std::string &name,
                    const char *cat, double ts_us, double dur_us,
                    int pid, int tid)
{
    os << "{\"name\": \"" << sim::jsonEscape(name) << "\", \"cat\": \""
       << cat << "\", \"ph\": \"X\", \"ts\": " << ts_us
       << ", \"dur\": " << dur_us << ", \"pid\": " << pid
       << ", \"tid\": " << tid << "}";
}

void
appendProcessNameEvent(std::ostream &os, int pid,
                       const std::string &name)
{
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"args\": {\"name\": \"" << sim::jsonEscape(name) << "\"}}";
}

void
appendThreadNameEvent(std::ostream &os, int pid, int tid,
                      const std::string &name)
{
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
       << sim::jsonEscape(name) << "\"}}";
}

void
appendThreadSortIndexEvent(std::ostream &os, int pid, int tid,
                           int sort_index)
{
    os << "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": " << tid
       << ", \"args\": {\"sort_index\": " << sort_index << "}}";
}

namespace {

/** Recursive-descent JSON syntax checker (no value construction). */
struct JsonScanner {
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit JsonScanner(const std::string &t) : text(t) {}

    bool
    fail(const std::string &what)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " at byte %zu", pos);
        error = what + buf;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos)
            if (pos >= text.size() || text[pos] != *p)
                return fail(std::string("bad literal '") + word + "'");
        return true;
    }

    bool
    string()
    {
        ++pos; // opening quote
        while (pos < text.size()) {
            unsigned char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control byte in string");
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= text.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text[pos])))
                            return fail("bad \\u escape");
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return fail("unknown escape");
                }
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        if (text[pos] == '-')
            ++pos;
        std::size_t first = pos, digits = 0;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            ++pos;
            ++digits;
        }
        if (digits == 0)
            return fail("bad number");
        if (digits > 1 && text[first] == '0')
            return fail("leading zero");
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("bad fraction");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("bad exponent");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        return true;
    }

    bool
    value(int depth)
    {
        if (depth > 128)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("missing value");
        char c = text[pos];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        return fail("unexpected character");
    }

    bool
    object(int depth)
    {
        ++pos; // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            if (!string())
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            if (!value(depth + 1))
                return false;
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(int depth)
    {
        ++pos; // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            if (!value(depth + 1))
                return false;
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

bool
jsonValid(const std::string &text, std::string *error)
{
    JsonScanner s(text);
    bool ok = s.value(0);
    if (ok) {
        s.skipWs();
        if (s.pos != text.size())
            ok = s.fail("trailing garbage");
    }
    if (!ok && error)
        *error = s.error;
    return ok;
}

} // namespace mlps::obs
