/**
 * @file
 * Traffic playground: compare the three routers on any workload the
 * library ships, from the command line.
 *
 *   ./build/examples/traffic_playground [options] [pattern] [rate] [routing]
 *   patterns: uniform transpose bitcomp hotspot tornado neighbor
 *             selfsimilar mpeg bitreverse shuffle
 *   routing:  xy xyyx adaptive
 *   An unknown pattern or routing name exits 2 with a usage message.
 *   options:  --shards <n>   run each router on the sharded engine
 *                            (src/par); results identical to serial
 *             --threads <n>  worker budget; without --shards the runs
 *                            shard themselves up to this many ways
 *
 *   e.g. ./build/examples/traffic_playground hotspot 0.25 adaptive
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "farm/wire.h"
#include "sim/simulator.h"

namespace {

[[noreturn]] void
usage(const char *msg, const char *arg)
{
    std::fprintf(stderr,
                 "traffic_playground: %s '%s'\n"
                 "usage: traffic_playground [--shards n] [--threads n] "
                 "[pattern] [rate] [routing]\n"
                 "  patterns: uniform transpose bitcomp hotspot tornado "
                 "neighbor selfsimilar mpeg bitreverse shuffle\n"
                 "  routing:  xy xyyx adaptive\n",
                 msg, arg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --shards/--threads first; what remains are the
    // positional pattern/rate/routing arguments.
    int shards = 0;
    int threads = 0;
    const char *pos[3] = {nullptr, nullptr, nullptr};
    int nPos = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--shards") && i + 1 < argc)
            shards = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else if (nPos < 3)
            pos[nPos++] = argv[i];
    }
    if (shards == 0 && threads > 0 && !std::getenv("NOC_SHARDS"))
        shards = threads;

    noc::TrafficKind traffic = noc::TrafficKind::Uniform;
    if (pos[0]) {
        auto t = noc::farm::parseTraffic(pos[0]);
        // Trace replay needs a schedule file: see trace_replay.
        if (!t || *t == noc::TrafficKind::Trace)
            usage("unknown pattern", pos[0]);
        traffic = *t;
    }
    double rate = pos[1] ? std::atof(pos[1]) : 0.2;
    noc::RoutingKind routing = noc::RoutingKind::XY;
    if (pos[2]) {
        auto r = noc::farm::parseRouting(pos[2]);
        if (!r)
            usage("unknown routing", pos[2]);
        routing = *r;
    }

    std::printf("8x8 mesh | %s traffic | %s routing | %.2f "
                "flits/node/cycle\n\n",
                toString(traffic), toString(routing), rate);
    std::printf("%-15s %9s %8s %11s %10s %9s %9s\n", "router",
                "latency", "p-sigma", "throughput", "nJ/packet",
                "row-cont", "col-cont");

    for (noc::RouterArch arch :
         {noc::RouterArch::Generic, noc::RouterArch::PathSensitive,
          noc::RouterArch::Roco}) {
        noc::SimConfig cfg;
        cfg.arch = arch;
        cfg.routing = routing;
        cfg.traffic = traffic;
        cfg.injectionRate = rate;
        cfg.shards = shards;
        cfg.warmupPackets = 800;
        cfg.measurePackets = 8000;

        noc::Simulator sim(cfg);
        noc::SimResult r = sim.run();
        std::printf("%-15s %9.2f %8.2f %11.3f %10.3f %9.3f %9.3f%s\n",
                    toString(arch), r.avgLatency, r.latencyStddev,
                    r.throughputFlits, r.energyPerPacketNj,
                    r.rowContention, r.colContention,
                    r.timedOut ? "  (saturated)" : "");
    }
    return 0;
}
