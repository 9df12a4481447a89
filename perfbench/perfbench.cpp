/**
 * @file
 * Repository benchmark program: runs one workload for a fixed host-time
 * budget, checks every output, and prints one JSON result line.
 *
 *   perfbench --workload <open8|mesh32_shard2|faults8_closed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--scale full|small] [--spans <file>] [--source-id <id>]
 *
 * Untraced (--trace 0) it reports the end-to-end metrics: wall_s (one
 * pass over the workload's grid, simulate + serialise, median over the
 * passes that fit in --seconds), setup_s (everything before the first
 * cycle, median of several cold set-ups, each in a forked child so the
 * proof memos start empty), flit_hops_per_s and peak_rss_mb. Traced
 * (--trace 1) it reports the per-layer metrics, timing the calls into
 * each module from here and reading the modules' public counters.
 * See perfbench/NOTES.md for why each workload and metric exists.
 *
 * Workload inputs (SimConfig::seed and fault placements) derive only
 * from --seed.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "check/deadlock.h"
#include "check/invariant.h"
#include "exp/json_out.h"
#include "exp/sweep.h"
#include "farm/journal.h"
#include "farm/wire.h"
#include "fault/fault_injector.h"
#include "model/liveness.h"
#include "power/energy_params.h"
#include "sim/network.h"
#include "sim/run_control.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace noc;

/**
 * Every environment variable the library reads. They are unset before
 * anything runs so a caller's shell cannot change what is measured
 * (NOC_SKIP_CHECK=1 would zero setup_s, NOC_SHARDS would re-shard the
 * serial workloads, NOC_INVARIANT=0 would drop the runtime audits).
 */
constexpr const char *kPinnedEnv[] = {
    "NOC_SHARDS",        "NOC_IDLE_SKIP",    "NOC_SKIP_CHECK",
    "NOC_INVARIANT",     "NOC_TRACE",        "NOC_TRACE_SAMPLE",
    "NOC_TRACE_BUF",     "NOC_TRACE_OUT",    "NOC_BENCH_THREADS",
    "NOC_RACE_CHECK",    "NOC_PROGRESS",     "NOC_BENCH_JSON",
    "NOC_BENCH_JSON_DIR", "NOC_FARM_CRASH_AFTER", "NOC_FARM_CRASH_WORKER",
};

/** Fault placements per faults8_closed pass (1 at --scale small). */
constexpr int kPlacements = 8;

/**
 * Cold set-ups per untraced run: forked children until both limits are
 * met, plus the parent's own. A set-up takes 0.05-0.2 s, so the time
 * floor gives the short ones more samples.
 */
constexpr int kMinSetupSamples = 15;
constexpr double kMinSetupSeconds = 2.0;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

const char *
archName(RouterArch a)
{
    return farm::wireName(a);
}

// --- workloads ----------------------------------------------------------

struct Workload {
    std::string name;
    std::vector<exp::SweepPoint> points;
    /** Set for the workload that executes as one SweepRunner sweep. */
    std::optional<exp::SweepSpec> sweep;
    int shards = 1;
};

SimConfig
baseConfig(std::uint64_t seed, bool small)
{
    SimConfig c;
    c.seed = splitmix(seed);
    c.shards = 1;
    c.idleSkip = true;
    if (small) {
        c.warmupPackets = 200;
        c.measurePackets = 1500;
    }
    return c;
}

exp::SweepPoint
point(const SimConfig &cfg, std::size_t index)
{
    exp::SweepPoint p;
    p.index = index;
    p.cfg = cfg;
    return p;
}

/**
 * Builds the workload's points from @p seed. Fault placement happens
 * here, so it is part of set-up.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool small,
             Tracer *tr)
{
    Workload w;
    w.name = name;
    SimConfig base = baseConfig(seed, small);
    if (name == "open8") {
        // Router-pipeline bound: every router busy, nothing else.
        const struct {
            TrafficKind traffic;
            double rate;
        } loads[] = {{TrafficKind::Uniform, 0.3}, {TrafficKind::Transpose, 0.2}};
        for (RouterArch a : {RouterArch::Roco, RouterArch::Generic,
                             RouterArch::PathSensitive}) {
            for (RoutingKind k : {RoutingKind::XY, RoutingKind::Adaptive}) {
                for (const auto &l : loads) {
                    SimConfig c = base;
                    c.arch = a;
                    c.routing = k;
                    c.traffic = l.traffic;
                    c.injectionRate = l.rate;
                    w.points.push_back(point(c, w.points.size()));
                }
            }
        }
    } else if (name == "mesh32_shard2") {
        // Engine and barrier bound: mostly idle routers, 1024 of them.
        // Two shards stay below nproc=4, so one preempted worker does
        // not stall a spinning peer on a shared host.
        w.shards = 2;
        base.meshWidth = base.meshHeight = small ? 16 : 32;
        base.injectionRate = 0.02;
        base.shards = w.shards;
        if (!small)
            base.measurePackets = 40000;
        for (RouterArch a : {RouterArch::Roco, RouterArch::PathSensitive}) {
            SimConfig c = base;
            c.arch = a;
            w.points.push_back(point(c, w.points.size()));
        }
    } else if (name == "faults8_closed") {
        // Degraded modules, MSHR endpoints and drain windows: one
        // SweepRunner(1) sweep over seeded Table-3 critical faults.
        base.injectionRate = 0.3;
        base.svc.enabled = true;
        base.warmupPackets = 200;
        base.measurePackets = 1500;
        exp::SweepSpec spec;
        spec.name = "perfbench_faults8_closed";
        spec.base = base;
        spec.archs = {RouterArch::Roco, RouterArch::Generic,
                      RouterArch::PathSensitive};
        spec.routings = {RoutingKind::XY, RoutingKind::XYYX,
                         RoutingKind::Adaptive};
        // Run length and hop count depend strongly on where the faults
        // land (how many MSHRs wait out a timeout), so each pass averages
        // over kPlacements independent placements rather than one.
        const int placements = small ? 1 : kPlacements;
        Scope s(tr, "fault.place");
        MeshTopology topo(base.meshWidth, base.meshHeight);
        for (int k = 0; k < placements; ++k) {
            spec.faultSets.push_back(
                {"crit-2f-p" + std::to_string(k),
                 placeRandomFaults(topo, FaultClass::RouterCentricCritical, 2,
                                   base.vcsPerPort,
                                   splitmix(splitmix(seed) + 1 + k))});
        }
        w.points = exp::expand(spec);
        w.sweep = std::move(spec);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
        std::exit(2);
    }
    return w;
}

/**
 * Proves every distinct config and builds every point's Simulator,
 * one at a time as a sweep does, so set-up does not set peak RSS.
 */
void
setUp(const Workload &w, Tracer *tr)
{
    for (const exp::SweepPoint &p : w.points) {
        {
            Scope s(tr, "check.prove", archName(p.cfg.arch));
            check::validateConfigOrDie(p.cfg);
        }
        Scope s(tr, "model.liveness", archName(p.cfg.arch));
        model::validateConfigLiveness(p.cfg);
    }
    for (const exp::SweepPoint &p : w.points) {
        std::unique_ptr<Simulator> sim;
        Scope s(tr, "sim.build", archName(p.cfg.arch));
        sim = std::make_unique<Simulator>(p.cfg, p.faults);
    }
}

/** One cold set-up of the whole workload, in host seconds. */
double
timedSetUp(const std::string &name, std::uint64_t seed, bool small)
{
    Clock::time_point t0 = Clock::now();
    setUp(makeWorkload(name, seed, small, nullptr), nullptr);
    return secondsBetween(t0, Clock::now());
}

/**
 * timedSetUp in a forked child, whose proof memos are still empty
 * (nothing has been proven in the parent yet). Returns < 0 on failure.
 */
double
forkedSetUp(const std::string &name, std::uint64_t seed, bool small)
{
    int fd[2];
    if (pipe(fd) != 0)
        return -1;
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fd[0]);
        close(fd[1]);
        return -1;
    }
    if (pid == 0) {
        close(fd[0]);
        double s = timedSetUp(name, seed, small);
        ssize_t n = write(fd[1], &s, sizeof s);
        _exit(n == static_cast<ssize_t>(sizeof s) ? 0 : 1);
    }
    close(fd[1]);
    double s = -1;
    if (read(fd[0], &s, sizeof s) != static_cast<ssize_t>(sizeof s))
        s = -1;
    close(fd[0]);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1;
    return s;
}

// --- result identity ----------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

std::array<double, 18>
doubleFields(const SimResult &r)
{
    return {r.avgLatency, r.latencyStddev, r.maxLatency, r.p50Latency,
            r.p99Latency, r.throughputFlits, r.completion, r.energy.bufferPj,
            r.energy.crossbarPj, r.energy.arbiterPj, r.energy.routingPj,
            r.energy.linkPj, r.energy.leakagePj, r.energyPerPacketNj, r.edp,
            r.pef, r.rowContention, r.colContention};
}

/** Every SimResult field, doubles compared bit for bit. */
bool
sameResult(const SimResult &a, const SimResult &b)
{
    const std::array<double, 18> da = doubleFields(a), db = doubleFields(b);
    if (std::memcmp(da.data(), db.data(), sizeof da) != 0)
        return false;
    if (a.injected != b.injected || a.delivered != b.delivered ||
        a.cycles != b.cycles || a.timedOut != b.timedOut ||
        a.replyCount != b.replyCount || a.mshrThrottled != b.mshrThrottled ||
        a.svcTimeouts != b.svcTimeouts ||
        a.svcLateReplies != b.svcLateReplies ||
        a.drainCycles != b.drainCycles || a.classes.size() != b.classes.size())
        return false;
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
        const SimResult::ClassResult &x = a.classes[i];
        const SimResult::ClassResult &y = b.classes[i];
        if (std::strcmp(x.name, y.name) != 0 || x.injected != y.injected ||
            x.delivered != y.delivered || x.rttCount != y.rttCount ||
            x.sloViolations != y.sloViolations ||
            !sameBits(x.avgLatency, y.avgLatency) ||
            !sameBits(x.p50Latency, y.p50Latency) ||
            !sameBits(x.p99Latency, y.p99Latency) ||
            !sameBits(x.avgRtt, y.avgRtt) || !sameBits(x.p99Rtt, y.p99Rtt))
            return false;
    }
    return true;
}

bool
samePoint(const exp::PointResult &a, const exp::PointResult &b)
{
    return a.index == b.index && a.seed == b.seed &&
           sameBits(a.wallMs, b.wallMs) && sameResult(a.result, b.result);
}

/**
 * Bytewise equality of a counter struct. Only for types without
 * padding, so every byte is a counter (FlitLedger, ActivityCounters).
 */
template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    static_assert(std::has_unique_object_representations_v<T>,
                  "padding bytes would make the comparison unreliable");
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Link traversals of a finished run, recovered exactly from its link
 * energy (linkPj = traversals x per-hop energy; the quotient of two
 * doubles rounds back to the integer far below 2^51 traversals). Used
 * where the run happened inside SweepRunner and its Network is gone;
 * the traced run cross-checks it against the Network's own counter.
 */
std::uint64_t
hopsFromEnergy(const SimConfig &cfg, const SimResult &r)
{
    double perHop = EnergyParams::forArch(cfg.arch, cfg).linkPj;
    return static_cast<std::uint64_t>(std::llround(r.energy.linkPj / perHop));
}

// --- one pass over the grid ---------------------------------------------

/** What a finished Network tells beyond its SimResult. */
struct NetCounters {
    FlitLedger ledger;
    ActivityCounters activity;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;
};

NetCounters
countersOf(const Network &net)
{
    return {net.ledger(), net.totalActivity(), net.routerStepsExecuted(),
            net.routerStepsScheduled()};
}

struct Pass {
    double wall = 0; ///< first cycle to last output, host seconds
    std::vector<exp::PointResult> results;
    /** Direct workloads only: each point's network counters. */
    std::vector<NetCounters> counters;
    /** Sweep workload only: decode(encode(result)) per point. */
    std::vector<std::optional<farm::DecodedShard>> decoded;
    std::size_t jsonBytes = 0;
    std::uint64_t hops = 0;
};

Pass
runPass(const Workload &w, Tracer *tr)
{
    Pass out;
    if (w.sweep) {
        const exp::SweepSpec &spec = *w.sweep;
        std::vector<std::string> ids = farm::jobIds(w.points);
        Clock::time_point t0 = Clock::now();
        exp::SweepResults res;
        {
            Scope s(tr, "exp.sweep");
            res = exp::SweepRunner(1).run(spec);
        }
        std::string json;
        {
            Scope s(tr, "exp.json");
            json = exp::sweepJson(spec, res);
        }
        for (std::size_t i = 0; i < res.results.size(); ++i) {
            std::string bytes;
            {
                Scope s(tr, "farm.encode");
                bytes = farm::encodePointResult(ids[i], res.results[i]);
            }
            Scope s(tr, "farm.decode");
            out.decoded.push_back(farm::decodePointResult(bytes));
        }
        out.wall = secondsBetween(t0, Clock::now());
        out.jsonBytes = json.size();
        out.results = std::move(res.results);
        for (std::size_t i = 0; i < out.results.size(); ++i)
            out.hops += hopsFromEnergy(w.points[i].cfg, out.results[i].result);
        return out;
    }

    std::vector<std::unique_ptr<Simulator>> sims;
    for (const exp::SweepPoint &p : w.points) {
        Scope s(tr, "sim.build", archName(p.cfg.arch));
        sims.push_back(std::make_unique<Simulator>(p.cfg, p.faults));
    }
    out.results.resize(w.points.size());
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < sims.size(); ++i) {
        exp::PointResult &pr = out.results[i];
        pr.index = i;
        pr.seed = w.points[i].cfg.seed;
        Scope s(tr, "sim.run", archName(w.points[i].cfg.arch));
        pr.result = sims[i]->run();
    }
    std::string json = "[";
    {
        Scope s(tr, "exp.json");
        for (const exp::PointResult &pr : out.results)
            json += (json.size() > 1 ? "," : "") + exp::resultJson(pr.result);
    }
    json += "]";
    out.wall = secondsBetween(t0, Clock::now());
    out.jsonBytes = json.size();
    for (const std::unique_ptr<Simulator> &sim : sims) {
        out.counters.push_back(countersOf(sim->network()));
        out.hops += out.counters.back().activity.linkTraversals;
    }
    return out;
}

/**
 * Output checks of one pass. A point fails when it is fault-free yet
 * incomplete or timed out, drained with created != retired flits,
 * round-trips through the farm wire format changed, or differs from
 * the same point of the run's first pass. Returns failed points.
 */
int
checkPass(const Workload &w, const Pass &p, const Pass *first)
{
    int failed = 0;
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        const SimResult &r = p.results[i].result;
        bool ok = true;
        if (w.points[i].faults.empty() && (r.completion < 1.0 || r.timedOut))
            ok = false;
        if (!p.counters.empty() && !r.timedOut && r.completion == 1.0 &&
            p.counters[i].ledger.created != p.counters[i].ledger.retired)
            ok = false;
        if (!p.decoded.empty() &&
            (!p.decoded[i] || !samePoint(p.decoded[i]->point, p.results[i])))
            ok = false;
        if (first != nullptr && !sameResult(r, first->results[i].result))
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "perfbench: %s point %zu failed its checks\n",
                         w.name.c_str(), i);
            ++failed;
        }
    }
    return failed;
}

// --- traced replay ------------------------------------------------------

struct ReplayOutcome {
    Cycle end = 0;
    Cycle measured = 0;
    Cycle generationEnd = 0;
    bool timedOut = false;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    NetCounters counters;
};

/**
 * Re-runs @p p on a fresh Network through the documented RunControl
 * begin/step/end loop (the serial loop of Simulator::run), recording
 * one span per Network::step.
 */
ReplayOutcome
replay(const exp::SweepPoint &p, Tracer &tr, StepSpans &steps)
{
    SimConfig cfg = p.cfg;
    cfg.shards = 1;
    Network net(cfg, p.faults);
    RunControl ctl(cfg);
    Scope span(&tr, "sim.replay", archName(cfg.arch));
    steps.parent = static_cast<int>(tr.spans().size()) - 1;
    Cycle now = 0;
    while (now < cfg.maxCycles) {
        if (ctl.beginCycle(now, net.traceExhausted(), net.packetsGenerated())) {
            net.resetActivity();
            net.resetContention();
        }
        Clock::time_point t0 = Clock::now();
        net.step(now, ctl.generating(), ctl.measuring());
        steps.ns.push_back(secondsBetween(t0, Clock::now()) * 1e9);
        ++now;
#if NOC_INVARIANTS_BUILT
        if ((now & 1023u) == 0 && check::invariantsEnabled())
            net.checkProtocolInvariants(now);
#endif
        if (!ctl.generating() &&
            ctl.endCycle(now, net.quiescent(), net.lastDeliveryCycle(),
                         net.ledger().svcPending))
            break;
    }
    ReplayOutcome o;
    o.end = now;
    o.timedOut = now >= cfg.maxCycles;
    o.measured = ctl.measuring() ? now - ctl.measureStart() : now;
    o.generationEnd = ctl.generationEnd();
    o.injected = net.totalInjectedMeasured();
    o.delivered = net.totalDeliveredMeasured();
    o.counters = countersOf(net);
    return o;
}

bool
replayMatches(const ReplayOutcome &o, const SimResult &r, const NetCounters &c)
{
    return o.end == r.drainCycles && o.measured == r.cycles &&
           o.timedOut == r.timedOut && o.injected == r.injected &&
           o.delivered == r.delivered && sameBytes(o.counters.ledger, c.ledger) &&
           sameBytes(o.counters.activity, c.activity) &&
           o.counters.stepsExecuted == c.stepsExecuted &&
           o.counters.stepsScheduled == c.stepsScheduled;
}

// --- output -------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    std::string spansPath;
    std::string sourceId = "unknown";
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <open8|mesh32_shard2|"
                 "faults8_closed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale full|small] [--spans <file>] [--source-id <id>]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--scale") {
            if (v != "full" && v != "small")
                usage();
            a.small = v == "small";
        } else if (k == "--spans") {
            a.spansPath = v;
        } else if (k == "--source-id") {
            a.sourceId = v;
        } else {
            usage();
        }
        if (end != nullptr && *end != '\0')
            usage();
    }
    if ((a.workload != "open8" && a.workload != "mesh32_shard2" &&
         a.workload != "faults8_closed") ||
        !(a.seconds > 0))
        usage();
    return a;
}

/**
 * The build options, read back from the definitions the library was
 * compiled with (perfbench/CMakeLists.txt sets only
 * NOC_INVARIANT_CHECKS).
 */
#if defined(NOC_OBS_HOOKS) && NOC_OBS_HOOKS
constexpr bool kObsBuilt = true;
#else
constexpr bool kObsBuilt = false;
#endif
#if defined(NOC_RACE_CHECK_HOOKS) && NOC_RACE_CHECK_HOOKS
constexpr bool kRaceCheckBuilt = true;
#else
constexpr bool kRaceCheckBuilt = false;
#endif

const char *
onOff(bool on)
{
    return on ? "ON" : "OFF";
}

/** Effective knobs, build options and host facts behind this result. */
std::string
recordJson(const Args &a, const Workload &w, const std::vector<double> &walls,
           const std::vector<double> &setup)
{
    auto array = [](const std::vector<double> &v) {
        std::string out = "[";
        for (double x : v)
            out += (out.size() > 1 ? "," : "") + jsonNumber(x);
        return out + "]";
    };
    std::string env = "{";
    for (const char *name : kPinnedEnv) {
        const char *v = std::getenv(name);
        env += (env.size() > 1 ? "," : "") + jsonString(name) + ":" +
               (v ? jsonString(v) : "null");
    }
    env += "}";
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "\"workload\":%s,\"seed\":%" PRIu64 ",\"scale\":%s,\"trace\":%d,"
        "\"points\":%zu,\"shards\":%d,\"nproc\":%ld,"
        "\"build_type\":%s,\"NOC_INVARIANTS\":\"%s\",\"NOC_OBS\":\"%s\","
        "\"NOC_RACE_CHECK\":\"%s\",\"invariants_enabled\":%s,"
        "\"upfront_checks_enabled\":%s,\"source_id\":%s",
        jsonString(a.workload).c_str(), a.seed, a.small ? "\"small\"" : "\"full\"",
        a.trace ? 1 : 0, w.points.size(), w.shards,
        sysconf(_SC_NPROCESSORS_ONLN), jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        onOff(NOC_INVARIANTS_BUILT), onOff(kObsBuilt), onOff(kRaceCheckBuilt),
        check::invariantsEnabled() ? "true" : "false",
        check::upfrontChecksEnabled() ? "true" : "false",
        jsonString(a.sourceId).c_str());
    return std::string("{\"record\":{") + buf + ",\"pass_wall_s\":" +
           array(walls) + ",\"setup_samples_s\":" + array(setup) +
           ",\"env\":" + env + "}}";
}

void
printResult(const Args &a, const Workload &w, const std::vector<double> &walls,
            const std::vector<double> &setup, long attempted, long failed,
            const std::vector<Metric> &metrics)
{
    std::printf("%s\n", recordJson(a, w, walls, setup).c_str());
    std::string m;
    for (const Metric &x : metrics) {
        m += (m.empty() ? "" : ",") + jsonString(x.name) + ":{\"value\":" +
             jsonNumber(x.value) + ",\"unit\":" + jsonString(x.unit) + "}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
                "\"metrics\":{%s}}\n",
                failed == 0 ? "true" : "false", attempted, failed, m.c_str());
    std::fflush(stdout);
}

void
writeSpans(const std::string &path, const Tracer &tr,
           const std::vector<StepSpans> &steps)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"spans\":[");
    const std::vector<Span> &sp = tr.spans();
    for (std::size_t i = 0; i < sp.size(); ++i) {
        std::fprintf(f, "%s\n{\"id\":%zu,\"name\":%s,\"tag\":%s,\"start_s\":%.9f,"
                        "\"end_s\":%.9f,\"parent\":%d}",
                     i ? "," : "", i, jsonString(sp[i].name).c_str(),
                     jsonString(sp[i].tag).c_str(), sp[i].start, sp[i].end,
                     sp[i].parent);
    }
    // Per-step spans are summarised per replayed run: a full dump of
    // every Network::step would be hundreds of thousands of records.
    std::fprintf(f, "\n],\"steps\":[");
    for (std::size_t i = 0; i < steps.size(); ++i) {
        std::vector<double> ns = steps[i].ns;
        double total = 0;
        for (double x : ns)
            total += x;
        double p50 = quantile(ns, 0.50);
        double p99 = quantile(ns, 0.99);
        std::fprintf(f, "%s\n{\"parent\":%d,\"count\":%zu,\"total_s\":%.9f,"
                        "\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                     i ? "," : "", steps[i].parent, ns.size(), total * 1e-9, p50,
                     p99);
    }
    std::fprintf(f, "\n],\"self_time_s\":{");
    bool firstLayer = true;
    for (const auto &[layer, s] : tr.selfTimeByLayer()) {
        std::fprintf(f, "%s%s:%.9f", firstLayer ? "" : ",",
                     jsonString(layer).c_str(), s);
        firstLayer = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
}

// --- the two runs -------------------------------------------------------

/** Runs passes until the budget is spent (at least one). */
template <typename Fn>
void
forBudget(double seconds, Fn &&onePass)
{
    Clock::time_point t0 = Clock::now();
    do {
        onePass();
    } while (secondsBetween(t0, Clock::now()) < seconds);
}

int
untracedRun(const Args &a)
{
    std::vector<double> setup;
    Clock::time_point t0 = Clock::now();
    while (setup.size() + 1 < kMinSetupSamples ||
           secondsBetween(t0, Clock::now()) < kMinSetupSeconds) {
        double s = forkedSetUp(a.workload, a.seed, a.small);
        if (s < 0) {
            std::fprintf(stderr, "perfbench: set-up child failed\n");
            return 1;
        }
        setup.push_back(s);
    }
    setup.push_back(timedSetUp(a.workload, a.seed, a.small));

    Workload w = makeWorkload(a.workload, a.seed, a.small, nullptr);
    std::optional<Pass> first; // every later pass's reference
    long attempted = 0, failed = 0;
    std::vector<double> walls;
    forBudget(a.seconds, [&] {
        Pass p = runPass(w, nullptr);
        attempted += static_cast<long>(p.results.size());
        failed += checkPass(w, p, first ? &*first : nullptr);
        walls.push_back(p.wall);
        if (!first)
            first = std::move(p);
    });
    // Every pass does the same deterministic work (checkPass compares
    // each result with the first pass's), so one pass's hops serve all.
    const double wall = median(walls);
    printResult(a, w, walls, setup, attempted, failed,
                {{"wall_s", wall, "s"},
                 {"setup_s", median(setup), "s"},
                 {"flit_hops_per_s", static_cast<double>(first->hops) / wall, "1/s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

/** Every point of a workload at shards=1, each through Simulator::run. */
struct SerialPass {
    std::vector<SimResult> results;
    std::vector<NetCounters> counters;
};

/**
 * Runs every point at shards=1, with a span named @p span around each
 * Simulator::run. The traced run uses it where its passes do not expose
 * a serial Simulator::run: the sweep hides its runs inside SweepRunner,
 * and mesh32_shard2 runs sharded.
 */
SerialPass
runSerial(const Workload &w, Tracer &tr, const char *span)
{
    SerialPass out;
    for (const exp::SweepPoint &p : w.points) {
        SimConfig cfg = p.cfg;
        cfg.shards = 1;
        Simulator sim(cfg, p.faults);
        {
            Scope s(&tr, span, archName(cfg.arch));
            out.results.push_back(sim.run());
        }
        out.counters.push_back(countersOf(sim.network()));
    }
    return out;
}

/**
 * Serial vs sweep or serial vs 2-shard: the whole result must match bit
 * for bit, the ledger too where the pass kept its Network, and the
 * sweep's hop count (recovered from energy) the serial Network's.
 * A drained serial run must also retire every flit it created.
 * Returns failed points.
 */
int
checkSerial(const Workload &w, const SerialPass &s, const Pass &p)
{
    int failed = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const SimResult &r = s.results[i];
        const FlitLedger &ledger = s.counters[i].ledger;
        bool ok = sameResult(r, p.results[i].result);
        if (!p.counters.empty() && !sameBytes(ledger, p.counters[i].ledger))
            ok = false;
        if (w.sweep && hopsFromEnergy(w.points[i].cfg, p.results[i].result) !=
                           s.counters[i].activity.linkTraversals)
            ok = false;
        if (!r.timedOut && r.completion == 1.0 && ledger.created != ledger.retired)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "perfbench: %s point %zu: serial run differs\n",
                         w.name.c_str(), i);
            ++failed;
        }
    }
    return failed;
}

int
tracedRun(const Args &a)
{
    Tracer tr;
    long attempted = 0, failed = 0;

    // Cold set-up, once, with a span per proof, placement and build.
    Workload w;
    {
        Scope s(&tr, "setup");
        w = makeWorkload(a.workload, a.seed, a.small, &tr);
        setUp(w, &tr);
    }
    const std::size_t setupEnd = tr.spans().size();
    const std::uint64_t proofs = check::deadlockProofsPerformed();
    const std::uint64_t liveness = model::livenessProofsPerformed();

    // Each iteration runs an untraced pass (U), a traced pass (T) and,
    // where T exposes no serial Simulator::run, a serial pass (S), as
    // U T S or S T U in turn. T always sits next to both, so each
    // iteration's T/U (tracing overhead) and S/T (sharding speedup)
    // compare runs from the same host period, and neither U nor S
    // always runs first.
    const bool needSerial = w.sweep || w.shards > 1;
    const char *serialSpan = w.shards > 1 ? "par.serial_run" : "sim.run";
    std::vector<double> untracedWalls, tracedWalls;
    std::vector<std::size_t> iterFrom; // first span of each iteration
    std::optional<Pass> first, traced;
    std::optional<SerialPass> serialFirst;
    forBudget(a.seconds, [&] {
        const bool untracedFirst = iterFrom.size() % 2 == 0;
        iterFrom.push_back(tr.spans().size());
        auto untracedPass = [&] {
            Pass u = runPass(w, nullptr);
            attempted += static_cast<long>(u.results.size());
            failed += checkPass(w, u, first ? &*first : nullptr);
            untracedWalls.push_back(u.wall);
            if (!first)
                first = std::move(u);
        };
        std::optional<SerialPass> serial;
        if (untracedFirst)
            untracedPass();
        else if (needSerial)
            serial = runSerial(w, tr, serialSpan);
        Pass t;
        {
            Scope s(&tr, "pass");
            t = runPass(w, &tr);
        }
        if (!untracedFirst)
            untracedPass();
        else if (needSerial)
            serial = runSerial(w, tr, serialSpan);
        attempted += static_cast<long>(t.results.size());
        failed += checkPass(w, t, &*first);
        tracedWalls.push_back(t.wall);
        if (serial) {
            attempted += static_cast<long>(serial->results.size());
            failed += checkSerial(w, *serial, t);
            if (!serialFirst)
                serialFirst = std::move(serial);
        }
        if (!traced)
            traced = std::move(t);
    });

    // Per-step replay: every point again on a fresh Network through the
    // RunControl loop, which must reproduce its serial Simulator::run.
    // It runs after the passes, so trace.overhead_ratio covers only the
    // pass-level spans, not the per-step ones.
    const std::size_t detailFrom = tr.spans().size();
    const std::vector<NetCounters> &cnt =
        serialFirst ? serialFirst->counters : traced->counters;
    std::vector<SimResult> serial;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        serial.push_back(serialFirst ? serialFirst->results[i]
                                     : traced->results[i].result);
    }
    std::vector<StepSpans> steps(w.points.size());
    std::uint64_t drainCycles = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        ReplayOutcome o = replay(w.points[i], tr, steps[i]);
        drainCycles += o.end - o.generationEnd;
        ++attempted;
        if (!replayMatches(o, serial[i], cnt[i])) {
            std::fprintf(stderr, "perfbench: %s point %zu: replay diverges\n",
                         w.name.c_str(), i);
            ++failed;
        }
    }

    // Time metrics: medians over iterations of each iteration's total.
    auto iterTotals = [&](const std::string &name, const char *tag = nullptr) {
        std::vector<double> v;
        for (std::size_t k = 0; k < iterFrom.size(); ++k) {
            std::size_t end = k + 1 < iterFrom.size() ? iterFrom[k + 1] : detailFrom;
            v.push_back(tr.total(name, iterFrom[k], end, tag));
        }
        return v;
    };
    auto iterMedian = [&](const std::string &name, const char *tag = nullptr) {
        return median(iterTotals(name, tag));
    };
    // Median over iterations of num[k] / den[k].
    auto pairedRatio = [](const std::vector<double> &num,
                          const std::vector<double> &den) {
        std::vector<double> r;
        for (std::size_t k = 0; k < num.size(); ++k)
            r.push_back(num[k] / den[k]);
        return median(r);
    };

    // Deterministic counts, from the same runs sim.run_s timed.
    ActivityCounters act;
    std::uint64_t stepsExec = 0, stepsSched = 0, cycles = 0, stranded = 0,
                  timedOut = 0, replies = 0, throttled = 0, svcTimeouts = 0;
    double latency = 0, p99 = 0, energy = 0, completion = 0, highRtt = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        act += cnt[i].activity;
        stepsExec += cnt[i].stepsExecuted;
        stepsSched += cnt[i].stepsScheduled;
        const SimResult &r = serial[i];
        cycles += r.drainCycles;
        stranded += r.injected - r.delivered;
        timedOut += r.timedOut ? 1 : 0;
        replies += r.replyCount;
        throttled += r.mshrThrottled;
        svcTimeouts += r.svcTimeouts;
        latency += r.avgLatency;
        p99 += r.p99Latency;
        energy += r.energyPerPacketNj;
        completion += r.completion;
        for (const SimResult::ClassResult &c : r.classes) {
            if (std::strcmp(c.name, "req-high") == 0)
                highRtt = std::max(highRtt, c.p99Rtt);
        }
    }
    const double n = static_cast<double>(w.points.size());
    std::vector<double> allSteps;
    for (const StepSpans &s : steps)
        allSteps.insert(allSteps.end(), s.ns.begin(), s.ns.end());
    const std::size_t stepSamples = allSteps.size();
    const double stepP50 = quantile(allSteps, 0.50);
    const double stepP99 = quantile(allSteps, 0.99);

    // sim.run spans come from T on the direct workloads and from S on
    // the sweep; par.serial_run spans from S on mesh32_shard2.
    const std::vector<double> runs = iterTotals("sim.run");
    const std::vector<double> serialRuns =
        w.shards > 1 ? iterTotals("par.serial_run") : runs;
    const double runS = median(runs);
    const double speedup = pairedRatio(serialRuns, runs);
    const double saArbs =
        static_cast<double>(act.saLocalArbs + act.saGlobalArbs);
    std::vector<Metric> m = {
        {"check.prove_s", tr.total("check.prove", 0, setupEnd), "s"},
        {"check.proofs", static_cast<double>(proofs), "count"},
        {"model.liveness_s", tr.total("model.liveness", 0, setupEnd), "s"},
        {"model.proofs", static_cast<double>(liveness), "count"},
        {"sim.build_s", tr.total("sim.build", 0, setupEnd), "s"},
        {"sim.run_s", runS, "s"},
        {"sim.step_ns_p50", stepP50, "ns"},
        {"sim.step_ns_p99", stepP99, "ns"},
        {"sim.step_samples", static_cast<double>(stepSamples), "count"},
        {"sim.ns_per_router_step", runS * 1e9 / static_cast<double>(stepsExec), "ns"},
        {"sim.ns_per_flit_hop", runS * 1e9 / static_cast<double>(act.linkTraversals), "ns"},
        {"sim.idle_skip_ratio",
         1.0 - static_cast<double>(stepsExec) / static_cast<double>(stepsSched),
         "ratio"},
        {"sim.cycles", static_cast<double>(cycles), "cycles"},
        {"sim.flit_hops", static_cast<double>(act.linkTraversals), "count"},
        {"sim.avg_latency_cycles", latency / n, "cycles"},
        {"sim.p99_latency_cycles", p99 / n, "cycles"},
        {"router.roco.run_s", iterMedian("sim.run", archName(RouterArch::Roco)), "s"},
        {"router.generic.run_s", iterMedian("sim.run", archName(RouterArch::Generic)), "s"},
        {"router.ps.run_s", iterMedian("sim.run", archName(RouterArch::PathSensitive)), "s"},
        {"router.ns_per_sa_arb", runS * 1e9 / saArbs, "ns"},
        {"router.va_arbs", static_cast<double>(act.vaLocalArbs + act.vaGlobalArbs), "count"},
        {"router.sa_arbs", saArbs, "count"},
        {"router.buffer_writes", static_cast<double>(act.bufferWrites), "count"},
        {"router.mirror_ties", static_cast<double>(act.saMirrorTies), "count"},
        {"par.run_s", runS, "s"},
        {"par.serial_run_s", median(serialRuns), "s"},
        {"par.speedup", speedup, "x"},
        {"par.efficiency", speedup / w.shards, "ratio"},
        {"fault.completion", completion / n, "ratio"},
        {"fault.stranded_packets", static_cast<double>(stranded), "count"},
        {"fault.timed_out_points", static_cast<double>(timedOut), "count"},
        {"fault.drain_cycles", static_cast<double>(drainCycles), "cycles"},
        {"svc.replies", static_cast<double>(replies), "count"},
        {"svc.mshr_throttled", static_cast<double>(throttled), "count"},
        {"svc.timeouts", static_cast<double>(svcTimeouts), "count"},
        {"svc.high_p99_rtt_cycles", highRtt, "cycles"},
        {"exp.sweep_s", iterMedian("exp.sweep"), "s"},
        {"exp.json_s", iterMedian("exp.json"), "s"},
        {"exp.json_bytes", static_cast<double>(traced->jsonBytes), "bytes"},
        {"farm.encode_s", iterMedian("farm.encode"), "s"},
        {"farm.decode_s", iterMedian("farm.decode"), "s"},
        {"power.energy_nj_per_packet", energy / n, "nJ"},
        {"trace.overhead_ratio", pairedRatio(tracedWalls, untracedWalls), "ratio"},
    };

    if (!a.spansPath.empty())
        writeSpans(a.spansPath, tr, steps);
    printResult(a, w, tracedWalls, {}, attempted, failed, m);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    for (const char *name : perfbench::kPinnedEnv)
        unsetenv(name);
    noc::check::setInvariantsEnabled(true);
    perfbench::Args a = perfbench::parseArgs(argc, argv);
    return a.trace ? perfbench::tracedRun(a) : perfbench::untracedRun(a);
}
