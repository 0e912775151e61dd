/**
 * @file
 * Shared helpers for the per-figure benchmark binaries.
 *
 * Every bench prints machine-readable CSV-ish rows plus a short
 * human-readable summary, and is sized to run in seconds-to-minutes on
 * a single host core (the paper's absolute numbers came from a 24-HT
 * Xeon testbed; see docs/BENCHMARKS.md for the mapping).
 */
#ifndef HORNET_BENCH_BENCH_UTIL_H
#define HORNET_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "net/routing/builders.h"
#include "net/topology.h"
#include "net/vca_builders.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/synthetic.h"
#include "traffic/trace.h"

namespace hornet::benchutil {

/** Wall-clock seconds of a callable. */
template <typename Fn>
double
wall_seconds(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Run @p measure three times and keep the sample whose @p better_key
 * is largest (negate a wall time to keep the fastest run). Host
 * interference can only degrade a short measurement, never improve
 * it, so best-of-N is the stable estimate the perf-regression gate's
 * 15% threshold needs; every row that feeds the gate goes through
 * this.
 */
template <typename Fn, typename Key>
auto
best_of_3(Fn &&measure, Key &&better_key)
{
    auto best = measure();
    for (int i = 1; i < 3; ++i) {
        auto sample = measure();
        if (better_key(sample) > better_key(best))
            best = sample;
    }
    return best;
}

/**
 * Common bench command line, shared by every binary that participates
 * in the perf-regression harness (scripts/check_bench_regression.py):
 *
 *   --quick        run the CI-sized smoke subset only (small meshes,
 *                  shortened loops); row *names* are unchanged so a
 *                  quick run compares against a quick baseline
 *   --json=PATH    additionally write the named rows as JSON for the
 *                  baseline comparison (see JsonReport)
 *
 * Unknown arguments abort: a typo must not silently run the full
 * sweep in CI.
 */
struct BenchCli
{
    /** CI smoke subset (small meshes, shortened loops). */
    bool quick = false;
    /** Destination of the JSON row report; empty = no report. */
    std::string json_path;

    /** Parse @p argv; fatal() on unknown arguments. */
    static BenchCli
    parse(int argc, char **argv)
    {
        BenchCli cli;
        for (int i = 1; i < argc; ++i) {
            const char *a = argv[i];
            if (std::strcmp(a, "--quick") == 0)
                cli.quick = true;
            else if (std::strncmp(a, "--json=", 7) == 0)
                cli.json_path = a + 7;
            else
                fatal(std::string("unknown bench argument: ") + a);
        }
        return cli;
    }
};

/**
 * Named numeric bench rows, writable as JSON for the perf-regression
 * harness. Each row carries the direction in which bigger is better
 * ("higher" for throughputs, "lower" for wall times, "exact" for
 * deterministic counts that must not move), so the checker needs no
 * out-of-band knowledge; the report carries the run mode
 * ("quick" or "full") because the two modes share row names while
 * measuring differently sized workloads — the checker refuses to
 * compare across modes. The output is a single object:
 *
 * ```json
 * {"bench": "<name>", "mode": "quick", "rows": [
 *   {"name": "...", "value": 1.23, "better": "higher"}, ...]}
 * ```
 */
class JsonReport
{
  public:
    /** @param bench_name identifies the binary in the report. */
    explicit JsonReport(std::string bench_name)
        : bench_(std::move(bench_name))
    {}

    /** Record a throughput-style row (bigger is better). */
    void
    higher_is_better(const std::string &name, double value)
    {
        rows_.push_back({name, value, "higher"});
    }

    /** Record a wall-time-style row (smaller is better). */
    void
    lower_is_better(const std::string &name, double value)
    {
        rows_.push_back({name, value, "lower"});
    }

    /** Record a deterministic count: any change from the baseline
     *  fails the comparison, in either direction. */
    void
    exact(const std::string &name, double value)
    {
        rows_.push_back({name, value, "exact"});
    }

    /** Write the report to @p path, tagged with the run mode of
     *  @p cli; fatal() when unwritable. */
    void
    write(const std::string &path, const BenchCli &cli) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write bench report: " + path);
        std::fprintf(f, "{\"bench\": \"%s\", \"mode\": \"%s\", \"rows\": [",
                     bench_.c_str(), cli.quick ? "quick" : "full");
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(f,
                         "%s\n  {\"name\": \"%s\", \"value\": %.*g, "
                         "\"better\": \"%s\"}",
                         i ? "," : "", rows_[i].name.c_str(),
                         std::strcmp(rows_[i].better, "exact") == 0 ? 17
                                                                    : 6,
                         rows_[i].value, rows_[i].better);
        std::fprintf(f, "\n]}\n");
        std::fclose(f);
    }

    /** Write to @p cli's json_path when one was given. */
    void
    write_if_requested(const BenchCli &cli) const
    {
        if (!cli.json_path.empty())
            write(cli.json_path, cli);
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *better; ///< "higher", "lower" or "exact"
    };
    std::string bench_;
    std::vector<Row> rows_;
};

/**
 * Install routing tables by scheme name ("xy", "o1turn", "romm",
 * "valiant", "shortest", "updown", "dragonfly", "dragonfly-valiant")
 * plus the matching phase-split VCA sets for multi-phase schemes
 * (required for their deadlock freedom).
 */
inline void
build_routing(net::Network &net, const std::string &scheme,
              const std::vector<net::FlowSpec> &flows)
{
    if (scheme == "xy") {
        net::routing::build_xy(net, flows);
        return;
    }
    if (scheme == "o1turn") {
        net::routing::build_o1turn(net, flows);
        net::vca::build_phase_split(net);
        return;
    }
    if (scheme == "romm") {
        net::routing::build_romm(net, flows);
        net::vca::build_phase_split(net);
        return;
    }
    if (scheme == "valiant") {
        net::routing::build_valiant(net, flows);
        net::vca::build_phase_split(net);
        return;
    }
    if (scheme == "shortest") {
        net::routing::build_shortest(net, flows);
        return;
    }
    if (scheme == "updown") {
        net::routing::build_updown(net, flows);
        return;
    }
    if (scheme == "dragonfly") {
        net::routing::build_dragonfly_minimal(net, flows);
        return;
    }
    if (scheme == "dragonfly-valiant") {
        net::routing::build_dragonfly_valiant(net, flows);
        net::vca::build_phase_split(net);
        return;
    }
    fatal("unknown routing scheme: " + scheme);
}

/** Result of one simulation run. */
struct RunResult
{
    SystemStats stats;
    Cycle end_cycle = 0;
    double wall_s = 0.0;
};

/** Options for run_trace(). */
struct TraceRunOptions
{
    Cycle cycles = 100000;
    Cycle warmup = 0;
    unsigned threads = 1;
    std::uint32_t sync_period = 1;
    bool fast_forward = false;
    bool stop_when_done = false;
    std::uint64_t seed = 1;
    std::string routing = "xy";
};

/** Build a system from a whole-chip trace and run it. */
inline RunResult
run_trace(const net::Topology &topo, const net::NetworkConfig &cfg,
          const std::vector<traffic::TraceEvent> &events,
          const TraceRunOptions &opts)
{
    auto sys = std::make_unique<sim::System>(topo, cfg, opts.seed);
    build_routing(sys->network(), opts.routing,
                  traffic::flows_from_trace(events));
    auto per_node =
        traffic::split_trace_by_source(events, topo.num_nodes());
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        if (!per_node[n].empty())
            sys->add_frontend(n, std::make_unique<traffic::TraceInjector>(
                                     sys->tile(n), per_node[n]));
    }
    RunResult out;
    // Freeze the lookup tables outside the timed section (one-time
    // construction work; see make_synthetic).
    sys->freeze_tables();
    out.wall_s = wall_seconds([&] {
        sim::RunOptions ro;
        ro.threads = opts.threads;
        ro.sync_period = opts.sync_period;
        ro.fast_forward = opts.fast_forward;
        ro.stop_when_done = opts.stop_when_done;
        if (opts.warmup != 0) {
            ro.max_cycles = opts.warmup;
            sys->run(ro);
            sys->reset_stats();
        }
        ro.max_cycles = opts.cycles;
        out.end_cycle = sys->run(ro);
    });
    out.stats = sys->collect_stats();
    return out;
}

/** Build a synthetic-pattern system (one injector per node). */
inline std::unique_ptr<sim::System>
make_synthetic(const net::Topology &topo, const net::NetworkConfig &cfg,
               const std::string &pattern_name, double rate,
               std::uint32_t packet_size, std::uint64_t seed,
               const std::string &routing = "xy",
               Cycle burst_period = 0, std::uint32_t burst_size = 1)
{
    auto sys = std::make_unique<sim::System>(topo, cfg, seed);
    auto pattern =
        traffic::pattern_by_name(pattern_name, topo.num_nodes());
    auto flows = pattern_name == "uniform"
                     ? traffic::flows_all_pairs(topo.num_nodes())
                     : traffic::flows_for_pattern(topo.num_nodes(),
                                                  pattern);
    build_routing(sys->network(), routing, flows);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = packet_size;
        sc.rate = rate;
        sc.burst_period = burst_period;
        sc.burst_size = burst_size;
        sys->add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                 sys->tile(n), sc));
    }
    // Compile the frozen lookup tables here, at construction time:
    // run() would otherwise do it lazily inside the first timed
    // section, charging one-time table compilation (substantial for
    // all-pairs flow sets) to whatever wall_seconds wraps that run.
    sys->freeze_tables();
    return sys;
}

} // namespace hornet::benchutil

#endif // HORNET_BENCH_BENCH_UTIL_H
