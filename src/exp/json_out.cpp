#include "exp/json_out.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace noc::exp {
namespace {

void
appendNum(std::string &out, double v)
{
    appendJsonNumber(out, v);
}

void
appendNum(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

/** The fault labels / names we emit contain no characters needing escapes,
 *  but guard anyway so a future label can't corrupt the file. */
void
appendStr(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

template <class T> void appendObject(std::string &out, const T &r);

/**
 * Writes `"key": value` pairs, ", "-separated: every json field goes
 * through here, and forEachField walks a result through it. Strings
 * are quoted, bools are true/false, lists become arrays and structs
 * (SimResult, EnergyBreakdown, ClassResult) nested objects.
 */
struct JsonFields {
    std::string &out;
    bool first = true;

    void
    key(const char *k)
    {
        out += first ? "\"" : ", \"";
        first = false;
        out += k;
        out += "\": ";
    }

    template <class T>
    void
    operator()(const char *k, const T &v)
    {
        key(k);
        if constexpr (std::is_same_v<T, bool>) {
            out += v ? "true" : "false";
        } else if constexpr (std::is_convertible_v<T, std::string>) {
            appendStr(out, v);
        } else if constexpr (std::is_arithmetic_v<T>) {
            appendNum(out, v);
        } else if constexpr (requires { v.size(); }) {
            out += '[';
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i)
                    out += ", ";
                appendObject(out, v[i]);
            }
            out += ']';
        } else {
            appendObject(out, v);
        }
    }
};

/** A SimResult, EnergyBreakdown or ClassResult as a json object. */
template <class T>
void
appendObject(std::string &out, const T &r)
{
    out += '{';
    forEachField(r, JsonFields{out});
    out += '}';
}

/** One histogram as {count, overflow, min, max, mean, pXX...}. */
void
appendHistogram(std::string &out, const obs::HdrHistogram &h)
{
    out += "{";
    JsonFields f{out};
    f("count", h.count());
    f("overflow", h.overflow());
    f("min", h.min());
    f("max", h.max());
    f("mean", h.mean());
    f("p50", h.percentile(0.50));
    f("p90", h.percentile(0.90));
    f("p99", h.percentile(0.99));
    f("p999", h.percentile(0.999));
    out += "}";
}

/** The sweep-wide observability aggregate (schema 2 "obs" block). */
void
appendObs(std::string &out, const obs::Summary &s)
{
    out += "{\n    \"stages\": {";
    bool first = true;
    for (int st = 0; st < obs::kStageCount; ++st) {
        const char *label = obs::residencyLabel(static_cast<obs::Stage>(st));
        if (label == nullptr)
            continue; // terminal stages open no residency interval
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += label;
        out += "\": ";
        appendHistogram(out, s.residency[static_cast<std::size_t>(st)]);
    }
    out += "},\n    \"endToEnd\": ";
    appendHistogram(out, s.endToEnd);
    out += ",\n    \"endToEndMeasured\": ";
    appendHistogram(out, s.endToEndMeasured);
    out += ",\n    \"byDistance\": [";
    for (std::size_t d = 0; d < s.byDistance.size(); ++d) {
        if (d)
            out += ", ";
        appendHistogram(out, s.byDistance[d]);
    }
    out += "],\n    \"events\": {";
    for (int st = 0; st < obs::kStageCount; ++st) {
        if (st)
            out += ", ";
        out += '"';
        out += obs::toString(static_cast<obs::Stage>(st));
        out += "\": ";
        appendNum(out, s.counters.events[st]);
    }
    out += "},\n    ";
    JsonFields f{out};
    f("sampledPackets", s.counters.sampledPackets);
    f("ringDropped", s.counters.ringDropped);
    f("occupancySamples", s.counters.occupancySamples);
    f.key("pathSetOccupancy");
    out += "{";
    JsonFields occ{out};
    occ("row", s.occupancyAvg(0));
    occ("col", s.occupancyAvg(1));
    out += "}\n  }";
}

} // namespace

void
appendJsonNumber(std::string &out, double v)
{
    char buf[40];
    // Whole numbers below 2^53 are exact as integers: print 20, not the
    // shortest %g form 2e+01.
    if (std::trunc(v) == v && std::fabs(v) < 0x1p53) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        out += buf;
        return;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer a shorter form when it round-trips to the same value.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        if (std::strtod(shorter, nullptr) == v) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

std::string
resultJson(const SimResult &r)
{
    std::string out;
    out.reserve(640);
    appendObject(out, r);
    return out;
}

std::string
sweepJsonHeader(const SweepSpec &spec, int threads, double totalWallMs,
                const obs::Summary *obsSum, const JsonOptions &opts)
{
    std::string out;
    out.reserve(1024);
    out += "{\n  \"schema\": ";
    appendNum(out, static_cast<std::uint64_t>(opts.schema));
    out += ",\n  \"bench\": ";
    appendStr(out, spec.name);
    out += ",\n  \"threads\": ";
    appendNum(out,
              static_cast<std::uint64_t>(opts.canonical ? 0 : threads));
    out += ",\n  \"baseSeed\": ";
    appendNum(out, spec.base.seed);
    out += ",\n  \"warmupPackets\": ";
    appendNum(out, spec.base.warmupPackets);
    out += ",\n  \"measurePackets\": ";
    appendNum(out, spec.base.measurePackets);
    out += ",\n  \"totalWallMs\": ";
    appendNum(out, opts.canonical ? 0.0 : totalWallMs);
    if (obsSum != nullptr && !opts.canonical) {
        out += ",\n  \"obs\": ";
        appendObs(out, *obsSum);
    }
    out += ",\n  \"points\": [\n";
    return out;
}

std::string
pointJson(const SweepPoint &p, const PointResult &r, const JsonOptions &opts)
{
    std::string out;
    out.reserve(640);
    out += "    {";
    JsonFields f{out};
    f("index", static_cast<std::uint64_t>(p.index));
    f("arch", toString(p.cfg.arch));
    f("routing", toString(p.cfg.routing));
    f("traffic", toString(p.cfg.traffic));
    f("rate", p.cfg.injectionRate);
    f("faults", p.faultLabel);
    f("seed", r.seed);
    f("wallMs", opts.canonical ? 0.0 : r.wallMs);
    if (opts.jobIds != nullptr && p.index < opts.jobIds->size()) {
        f.key("job");
        out += "{";
        JsonFields job{out};
        job("id", (*opts.jobIds)[p.index]);
        if (opts.provenance != nullptr &&
            p.index < opts.provenance->size()) {
            const JsonOptions::PointProvenance &pv =
                (*opts.provenance)[p.index];
            job("attempt", static_cast<std::uint64_t>(pv.attempt));
            job("worker",
                static_cast<std::uint64_t>(pv.worker < 0 ? 0 : pv.worker));
            job("wallMs", pv.wallMs);
        }
        out += "}";
    }
    f("result", r.result);
    out += "}";
    return out;
}

const char *
sweepJsonFooter()
{
    return "  ]\n}\n";
}

std::string
sweepJson(const SweepSpec &spec, const SweepResults &res,
          const JsonOptions &opts)
{
    std::string out;
    out.reserve(1024 + res.points.size() * 640);
    out += sweepJsonHeader(spec, res.threads, res.totalWallMs,
                           res.obs.get(), opts);
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        out += pointJson(res.points[i], res.results[i], opts);
        if (i + 1 < res.points.size())
            out += ",";
        out += "\n";
    }
    out += sweepJsonFooter();
    return out;
}

std::string
sweepJson(const SweepSpec &spec, const SweepResults &res)
{
    return sweepJson(spec, res, JsonOptions{});
}

std::string
writeBenchJson(const std::string &name, const std::string &body)
{
    if (const char *v = std::getenv("NOC_BENCH_JSON")) {
        if (std::strcmp(v, "0") == 0)
            return "";
    }
    const char *dir = std::getenv("NOC_BENCH_JSON_DIR");
    std::string path = dir && *dir ? std::string(dir) + "/" : std::string();
    path += "BENCH_" + name + ".json";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return "";
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return path;
}

std::string
writeSweepJson(const SweepSpec &spec, const SweepResults &res)
{
    return writeBenchJson(spec.name, sweepJson(spec, res));
}

} // namespace noc::exp
