/**
 * @file
 * Shared bounded JSON parser.
 *
 * One recursive-descent parser serves every consumer of untrusted
 * JSON in the tree: the serve wire protocol (line-delimited requests)
 * and the workload importer (whole files). Budgets are explicit —
 * nesting depth, document bytes and token count — so hostile input
 * fails with a one-line diagnostic instead of recursing or allocating
 * away. Every parsed node carries the byte offset it started at,
 * which the importer maps to line/column for its diagnostics.
 *
 * The default-limit parse() overload is byte-compatible with the
 * parser that historically lived in serve/protocol.cc: same depth
 * ceiling (32), same error strings ("<why> at byte N"), same lenient
 * strtod number grammar. Consumers of untrusted files should pass
 * JsonLimits with strict_numbers and byte/token budgets instead.
 */

#ifndef MLPSIM_SIM_JSON_H
#define MLPSIM_SIM_JSON_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mlps::sim {

/** Parse budgets; zero means "no limit" for the size-type fields. */
struct JsonLimits {
    /** Nesting ceiling; hostile input fails instead of recursing away. */
    int max_depth = 32;
    /** Document size ceiling in bytes (0 = unlimited). */
    std::size_t max_bytes = 0;
    /** Ceiling on parsed values (0 = unlimited). */
    std::size_t max_tokens = 0;
    /**
     * Reject numbers outside the JSON grammar: strtod extensions
     * (inf, nan, hex floats) and values that overflow to infinity.
     * Off by default for wire-protocol compatibility.
     */
    bool strict_numbers = false;
};

/** Parsed JSON value (object keys keep insertion order). */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> object;
    std::vector<JsonValue> array;
    /** Byte offset of the value's first character in the document. */
    std::size_t offset = 0;

    /**
     * Parse a complete JSON document under the default (serve-
     * compatible) limits. @return false + error on junk.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error);

    /** Parse under explicit budgets. */
    static bool parse(const std::string &text, const JsonLimits &limits,
                      JsonValue *out, std::string *error);

    /** Object member by key; null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNull() const { return kind == Kind::Null; }
};

/**
 * Escape a byte string for embedding in a JSON string literal (quotes
 * not included): quotes and backslashes get a backslash, control
 * bytes below 0x20 become \n, \t, \r or \u00XX. Non-ASCII bytes pass
 * through verbatim (every emitter writes UTF-8). The one escaper of
 * the tree: serve, traces, manifests, logs and exports all use it.
 */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip rendering of a double (%.17g, bit-exact). */
std::string jsonDouble(double v);

/**
 * Map a byte offset to 1-based line and column (tabs count one
 * column; offsets past the end clamp to the last position).
 */
void jsonLineCol(const std::string &text, std::size_t offset,
                 int *line, int *col);

} // namespace mlps::sim

#endif // MLPSIM_SIM_JSON_H
