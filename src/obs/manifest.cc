#include "obs/manifest.h"

#include <cstdio>
#include <sstream>

#include "obs/trace_json.h"
#include "sim/json.h"

namespace mlps::obs {

namespace {

std::string
quoted(const std::string &s)
{
    return "\"" + sim::jsonEscape(s) + "\"";
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        double parsed = 0.0;
        std::sscanf(probe, "%lf", &parsed);
        if (parsed == v)
            return probe;
    }
    return buf;
}

void
appendStringArray(std::ostringstream &os, const char *key,
                  const std::vector<std::string> &values,
                  const char *indent, bool trailing_comma)
{
    os << indent << "\"" << key << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << quoted(values[i]);
    os << "]" << (trailing_comma ? "," : "") << "\n";
}

} // namespace

std::string
manifestToJson(const RunManifest &m)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"mlpsim_run_manifest\": " << kManifestVersion << ",\n";

    // Deterministic object first, at fixed indentation, so tooling can
    // byte-compare it across runs without a JSON parser.
    os << "  \"deterministic\": {\n";
    os << "    \"tool\": \"mlpsim\",\n";
    os << "    \"command\": " << quoted(m.command) << ",\n";
    os << "    \"journal_format_version\": " << m.journal_format_version
       << ",\n";
    os << "    \"requests\": " << m.requests << ",\n";
    os << "    \"request_digest\": " << quoted(m.request_digest)
       << ",\n";
    appendStringArray(os, "config_digests", m.config_digests, "    ",
                      true);
    os << "    \"degraded_runs\": [";
    for (std::size_t i = 0; i < m.degraded.size(); ++i) {
        const ManifestDegradedRun &d = m.degraded[i];
        os << (i ? "," : "") << "\n      {\"workload\": "
           << quoted(d.workload) << ", \"system\": " << quoted(d.system)
           << ", \"gpus\": " << d.num_gpus
           << ", \"reason\": " << quoted(d.reason) << "}";
    }
    os << (m.degraded.empty() ? "]\n" : "\n    ]\n");
    os << "  },\n";

    os << "  \"volatile\": {\n";
    appendStringArray(os, "argv", m.argv, "    ", true);
    os << "    \"jobs\": " << m.jobs << ",\n";
    os << "    \"cache\": {\"hits\": " << m.cache_hits
       << ", \"unique_runs\": " << m.unique_runs
       << ", \"journal_loaded\": " << m.journal_loaded
       << ", \"hit_ratio\": " << formatDouble(m.cache_hit_ratio)
       << "},\n";
    os << "    \"sim_seconds\": " << formatDouble(m.sim_seconds)
       << ",\n";
    os << "    \"wall_seconds\": " << formatDouble(m.wall_seconds)
       << ",\n";
    os << "    \"timestamp_unix\": " << m.timestamp_unix << ",\n";
    os << "    \"phases\": [";
    for (std::size_t i = 0; i < m.phases.size(); ++i)
        os << (i ? "," : "") << "\n      {\"name\": "
           << quoted(m.phases[i].first)
           << ", \"wall_s\": " << formatDouble(m.phases[i].second)
           << "}";
    os << (m.phases.empty() ? "],\n" : "\n    ],\n");
    os << "    \"build\": {\"compiler\": " << quoted(m.compiler)
       << ", \"mode\": " << quoted(m.build) << "}\n";
    os << "  }\n";
    os << "}\n";
    return os.str();
}

} // namespace mlps::obs
