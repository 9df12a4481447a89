/**
 * @file
 * Whole-result golden identity test.
 *
 * Runs a small fixed matrix — {roco, generic, ps} x {xy, xyyx,
 * adaptive} x {fault-free, two Table 3 router-centric critical faults}
 * x {open-loop uniform @0.2, closed-loop service @0.3} on a 4x4 mesh —
 * and compares, byte for byte, everything each point produced against
 * the committed golden file: the full farm shard encoding of the
 * result (every SimResult field, %a hex-floats, per-class blocks), the
 * network-wide activity counters and the flit ledger. Any change to
 * router, NIC or engine behaviour that moves a single bit of any
 * output fails here.
 *
 * The same points' BENCH json result objects (exp::resultJson, one
 * line per point) are compared against a second golden file, so the
 * json writer's key order and number formatting are pinned too.
 *
 * On a mismatch the test reports the first differing line and writes
 * the actual output next to the test binary (golden_result.actual.txt,
 * golden_result_json.actual.txt) for inspection.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/json_out.h"
#include "farm/wire.h"
#include "sim/simulator.h"

namespace noc {
namespace {

/** Two router-centric critical faults (Table 3) at fixed places. */
std::vector<FaultSpec>
fixedCriticalFaults()
{
    FaultSpec va;
    va.node = 5;
    va.component = FaultComponent::VaArbiter;
    va.module = Module::Row;
    FaultSpec xbar;
    xbar.node = 10;
    xbar.component = FaultComponent::Crossbar;
    xbar.module = Module::Column;
    return {va, xbar};
}

void
appendCounter(std::string &out, const char *key, std::uint64_t v)
{
    out += key;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

/** The matrix's output: shard text plus counters, and json lines. */
struct MatrixOutput {
    std::string shard;
    std::string json;
};

/** Everything one point produced, as text; its result json goes to
 *  @p json. */
std::string
runPoint(std::size_t index, const SimConfig &cfg,
         const std::vector<FaultSpec> &faults, std::string &json)
{
    Simulator sim(cfg, faults);
    exp::PointResult pr;
    pr.index = index;
    pr.seed = cfg.seed;
    pr.result = sim.run(); // wallMs stays 0: host time is not a result
    std::string out = farm::encodePointResult("golden", pr);
    json += exp::resultJson(pr.result);
    json += '\n';

    const ActivityCounters a = sim.network().totalActivity();
    appendCounter(out, "act.bufferWrites", a.bufferWrites);
    appendCounter(out, "act.bufferReads", a.bufferReads);
    appendCounter(out, "act.crossbarTraversals", a.crossbarTraversals);
    appendCounter(out, "act.linkTraversals", a.linkTraversals);
    appendCounter(out, "act.rcComputations", a.rcComputations);
    appendCounter(out, "act.vaLocalArbs", a.vaLocalArbs);
    appendCounter(out, "act.vaGlobalArbs", a.vaGlobalArbs);
    appendCounter(out, "act.saLocalArbs", a.saLocalArbs);
    appendCounter(out, "act.saGlobalArbs", a.saGlobalArbs);
    appendCounter(out, "act.saMirrorTies", a.saMirrorTies);
    appendCounter(out, "act.earlyEjections", a.earlyEjections);

    const FlitLedger &l = sim.network().ledger();
    appendCounter(out, "ledger.created", l.created);
    appendCounter(out, "ledger.retired", l.retired);
    appendCounter(out, "ledger.lastDelivery", l.lastDelivery);
    appendCounter(out, "ledger.flitCycles", l.flitCycles);
    return out;
}

MatrixOutput
runMatrix()
{
    MatrixOutput m;
    std::string &out = m.shard;
    std::size_t index = 0;
    for (RouterArch arch : {RouterArch::Roco, RouterArch::Generic,
                            RouterArch::PathSensitive}) {
        for (RoutingKind routing : {RoutingKind::XY, RoutingKind::XYYX,
                                    RoutingKind::Adaptive}) {
            for (bool faulty : {false, true}) {
                for (bool closed : {false, true}) {
                    SimConfig cfg;
                    cfg.meshWidth = 4;
                    cfg.meshHeight = 4;
                    cfg.arch = arch;
                    cfg.routing = routing;
                    cfg.traffic = TrafficKind::Uniform;
                    cfg.injectionRate = closed ? 0.3 : 0.2;
                    cfg.svc.enabled = closed;
                    cfg.warmupPackets = 200;
                    cfg.measurePackets = 2000;
                    cfg.maxCycles = 60000;
                    out += std::string("point ") + farm::wireName(arch) +
                           ' ' + farm::wireName(routing) + ' ' +
                           (faulty ? "crit2" : "fault-free") + ' ' +
                           (closed ? "closed@0.3" : "open@0.2") + '\n';
                    out += runPoint(index++, cfg,
                                    faulty ? fixedCriticalFaults()
                                           : std::vector<FaultSpec>{},
                                    m.json);
                }
            }
        }
    }
    return m;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

/** Compares @p actual with the golden file at @p path, naming the first
 *  differing line and writing @p actual to @p actualName on mismatch. */
void
expectMatchesGolden(const char *path, const std::string &actual,
                    const char *actualName)
{
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    if (actual == golden.str())
        return;

    const std::string actualPath =
        std::string(GOLDEN_RESULT_ACTUAL_DIR) + "/" + actualName;
    std::ofstream(actualPath) << actual;

    const std::vector<std::string> want = splitLines(golden.str());
    const std::vector<std::string> got = splitLines(actual);
    std::size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i])
        ++i;
    // The last "point" header above the divergence names the cell.
    std::string cell = "(before the first point)";
    for (std::size_t j = 0; j < i && j < got.size(); ++j) {
        if (got[j].rfind("point ", 0) == 0)
            cell = got[j];
    }
    ADD_FAILURE() << path << ": first difference at line " << i + 1
                  << " in " << cell << "\n  golden: "
                  << (i < want.size() ? want[i] : "<end of file>")
                  << "\n  actual: "
                  << (i < got.size() ? got[i] : "<end of output>")
                  << "\nactual output written to " << actualPath;
}

TEST(GoldenResultTest, WholeResultsMatchTheGoldenFile)
{
    const MatrixOutput m = runMatrix();
    expectMatchesGolden(GOLDEN_RESULT_FILE, m.shard,
                        "golden_result.actual.txt");
    expectMatchesGolden(GOLDEN_RESULT_JSON_FILE, m.json,
                        "golden_result_json.actual.txt");
}

} // namespace
} // namespace noc
