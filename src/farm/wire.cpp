#include "farm/wire.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/flit.h"

namespace noc::farm {

std::string
encodeDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

namespace {

/**
 * One `key value` line reader over the shard bytes. Values never
 * contain spaces (numbers, hex-floats, class names are space-free), so
 * the first space splits key from value.
 */
struct LineReader {
    const std::string &bytes;
    std::size_t pos = 0;

    bool
    next(std::string &key, std::string &value)
    {
        if (pos >= bytes.size())
            return false;
        std::size_t eol = bytes.find('\n', pos);
        if (eol == std::string::npos)
            return false; // unterminated line == torn write
        std::string ln = bytes.substr(pos, eol - pos);
        pos = eol + 1;
        std::size_t sp = ln.find(' ');
        if (sp == std::string::npos) {
            key = ln;
            value.clear();
        } else {
            key = ln.substr(0, sp);
            value = ln.substr(sp + 1);
        }
        return true;
    }
};

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

/** Maps a stored class name back onto msgClassName's static strings
 *  (ClassResult::name is a non-owning const char*). */
const char *
internClassName(const std::string &s)
{
    for (int i = 0; i < kNumMsgClasses; ++i) {
        const char *n = msgClassName(static_cast<MsgClass>(i));
        if (s == n)
            return n;
    }
    return nullptr;
}

/**
 * The shard's lines in order: the point-level fields, then the
 * SimResult field table. @p d is const to encode, mutable to decode.
 */
template <class D, class V>
void
forEachShardField(D &d, V &&v)
{
    v("job", d.jobId);
    v("attempt", d.attempt);
    v("worker", d.worker);
    v("index", d.point.index);
    v("seed", d.point.seed);
    v("wallMs", d.point.wallMs);
    forEachField(d.point.result, v);
}

using ClassList = std::vector<SimResult::ClassResult>;

/** Writes one `key value` line per field: energy members as
 *  `energy.<key>`, each class as a `class <name>` line, then its
 *  members as `c.<key>`. Doubles in %a, integers and bools in decimal. */
struct ShardWriter {
    std::string &out;
    std::string prefix;

    template <class T>
    void
    operator()(const char *key, const T &v)
    {
        if constexpr (std::is_same_v<T, EnergyBreakdown>) {
            forEachField(v, ShardWriter{out, prefix + key + '.'});
        } else if constexpr (std::is_same_v<T, ClassList>) {
            for (const SimResult::ClassResult &c : v)
                forEachField(c, ShardWriter{out, "c."});
        } else if constexpr (std::is_same_v<T, const char *>) {
            out += std::string("class ") + v + '\n'; // opens a class block
        } else {
            out += prefix + key + ' ';
            if constexpr (std::is_same_v<T, double>)
                out += encodeDouble(v);
            else if constexpr (std::is_same_v<T, std::string>)
                out += v;
            else
                out += std::to_string(static_cast<std::uint64_t>(v));
            out += '\n';
        }
    }
};

/** Parses @p value into the field whose shard key is @p key; `ok`
 *  stays false for an unknown key or a malformed value. */
struct ShardReader {
    const std::string &key;
    const std::string &value;
    std::string prefix;
    bool ok = false;

    bool
    named(const char *k) const
    {
        return key.size() == prefix.size() + std::strlen(k) &&
               key.compare(0, prefix.size(), prefix) == 0 &&
               key.compare(prefix.size(), std::string::npos, k) == 0;
    }

    template <class T>
    void
    operator()(const char *k, T &v)
    {
        if constexpr (std::is_same_v<T, EnergyBreakdown>) {
            prefix = std::string(k) + '.';
            forEachField(v, *this);
            prefix.clear();
        } else if constexpr (std::is_same_v<T, ClassList>) {
            prefix = "c."; // into the block the last `class` line opened
            forEachField(v.back(), *this);
            prefix.clear();
        } else if constexpr (std::is_same_v<T, const char *>) {
            // The class name is set by the `class` line itself.
        } else if (named(k)) {
            if constexpr (std::is_same_v<T, double>) {
                ok = parseDouble(value, v);
            } else if constexpr (std::is_same_v<T, std::string>) {
                v = value;
                ok = !v.empty();
            } else {
                std::uint64_t u = 0;
                ok = parseU64(value, u) && u <= std::numeric_limits<T>::max();
                v = static_cast<T>(u);
            }
        }
    }
};

} // namespace

std::string
encodePointResult(const std::string &jobId, const exp::PointResult &r,
                  std::uint32_t attempt, int worker)
{
    const DecodedShard d{jobId, attempt, worker < 0 ? 0 : worker, r};
    std::string out = "rocosim-shard 1\n";
    out.reserve(1024);
    forEachShardField(d, ShardWriter{out, ""});
    out += "end\n";
    return out;
}

std::string
resultBytes(const SimResult &r)
{
    exp::PointResult p;
    p.result = r;
    return encodePointResult("result", p);
}

std::optional<DecodedShard>
decodePointResult(const std::string &bytes)
{
    LineReader rd{bytes};
    std::string key, value;
    if (!rd.next(key, value) || key != "rocosim-shard" || value != "1")
        return std::nullopt;

    DecodedShard d;
    while (rd.next(key, value)) {
        if (key == "end")
            return d.jobId.empty() ? std::nullopt : std::optional(std::move(d));
        if (key == "class") {
            const char *name = internClassName(value);
            if (name == nullptr)
                return std::nullopt;
            d.point.result.classes.push_back({.name = name});
            continue;
        }
        // A `c.` line before any `class` line finds no field: the
        // classes list is walked only once it is non-empty.
        ShardReader field{key, value, ""};
        forEachShardField(d, field);
        if (!field.ok)
            return std::nullopt; // unknown field (version skew) or bad value
    }
    return std::nullopt; // no `end` trailer: torn write
}

const char *
wireName(RouterArch a)
{
    switch (a) {
    case RouterArch::Generic: return "generic";
    case RouterArch::PathSensitive: return "ps";
    case RouterArch::Roco: return "roco";
    }
    return "roco";
}

const char *
wireName(RoutingKind k)
{
    switch (k) {
    case RoutingKind::XY: return "xy";
    case RoutingKind::XYYX: return "xyyx";
    case RoutingKind::Adaptive: return "adaptive";
    }
    return "xy";
}

const char *
wireName(TrafficKind t)
{
    switch (t) {
    case TrafficKind::Uniform: return "uniform";
    case TrafficKind::Transpose: return "transpose";
    case TrafficKind::BitComplement: return "bitcomp";
    case TrafficKind::Hotspot: return "hotspot";
    case TrafficKind::Tornado: return "tornado";
    case TrafficKind::NearestNeighbor: return "neighbor";
    case TrafficKind::SelfSimilar: return "selfsimilar";
    case TrafficKind::Mpeg: return "mpeg";
    case TrafficKind::BitReverse: return "bitreverse";
    case TrafficKind::Shuffle: return "shuffle";
    case TrafficKind::Trace: return "trace";
    }
    return "uniform";
}

namespace {

/** The enumerator of E, numbered 0..@p last, whose wireName is @p s. */
template <class E>
std::optional<E>
parseWireName(const std::string &s, E last)
{
    for (int i = 0; i <= static_cast<int>(last); ++i) {
        if (s == wireName(static_cast<E>(i)))
            return static_cast<E>(i);
    }
    return std::nullopt;
}

} // namespace

std::optional<RouterArch>
parseArch(const std::string &s)
{
    if (s == "pathsensitive")
        return RouterArch::PathSensitive; // long-form alias of "ps"
    return parseWireName(s, RouterArch::Roco);
}

std::optional<RoutingKind>
parseRouting(const std::string &s)
{
    return parseWireName(s, RoutingKind::Adaptive);
}

std::optional<TrafficKind>
parseTraffic(const std::string &s)
{
    return parseWireName(s, TrafficKind::Trace);
}

namespace {

void
skipWs(const std::string &s, std::size_t &i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
}

bool
parseJsonString(const std::string &s, std::size_t &i, std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c == '\\') {
            if (i >= s.size())
                return false;
            char e = s[i++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            default: return false; // \uXXXX etc: protocol never sends it
            }
        } else {
            out += c;
        }
    }
    if (i >= s.size())
        return false;
    ++i; // closing quote
    return true;
}

} // namespace

std::optional<FlatJson>
FlatJson::parse(const std::string &ln)
{
    FlatJson out;
    std::size_t i = 0;
    skipWs(ln, i);
    if (i >= ln.size() || ln[i] != '{')
        return std::nullopt;
    ++i;
    skipWs(ln, i);
    if (i < ln.size() && ln[i] == '}') {
        ++i;
        skipWs(ln, i);
        return i == ln.size() ? std::optional<FlatJson>(out) : std::nullopt;
    }
    for (;;) {
        skipWs(ln, i);
        Entry e;
        if (!parseJsonString(ln, i, e.key))
            return std::nullopt;
        skipWs(ln, i);
        if (i >= ln.size() || ln[i] != ':')
            return std::nullopt;
        ++i;
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == '"') {
            if (!parseJsonString(ln, i, e.value))
                return std::nullopt;
            e.isString = true;
        } else if (ln[i] == '{' || ln[i] == '[') {
            return std::nullopt; // flat protocol only
        } else {
            // Number / true / false / null: take the literal token.
            std::size_t start = i;
            while (i < ln.size() && ln[i] != ',' && ln[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(ln[i])))
                ++i;
            e.value = ln.substr(start, i - start);
            if (e.value.empty())
                return std::nullopt;
        }
        out.entries_.push_back(std::move(e));
        skipWs(ln, i);
        if (i >= ln.size())
            return std::nullopt;
        if (ln[i] == ',') {
            ++i;
            continue;
        }
        if (ln[i] == '}') {
            ++i;
            skipWs(ln, i);
            return i == ln.size() ? std::optional<FlatJson>(out)
                                  : std::nullopt;
        }
        return std::nullopt;
    }
}

std::string
FlatJson::str(const std::string &key, const std::string &fallback) const
{
    for (const Entry &e : entries_)
        if (e.key == key)
            return e.isString ? e.value : fallback;
    return fallback;
}

double
FlatJson::num(const std::string &key, double fallback) const
{
    for (const Entry &e : entries_) {
        if (e.key == key && !e.isString) {
            double v = 0;
            if (parseDouble(e.value, v))
                return v;
        }
    }
    return fallback;
}

} // namespace noc::farm
