/**
 * @file
 * Route-table microbench: the per-flit lookup cost of the frozen
 * common::FlatTable form the routing/VCA tables compile into, and the
 * construction cost of building and freezing all-pairs routing tables.
 *
 * Lookup rows. Each measured lookup does the work
 * Router::do_route_compute's weighted pick needs: one hash, a short
 * linear probe in one contiguous slot array, the first option, and the
 * precomputed total weight. Two regimes bracket the simulator's
 * behaviour: `hot` keeps one small router table resident in cache (the
 * steady state of a busy router re-resolving its few active flows),
 * `cold` strides across many router tables so every lookup starts from
 * a cold line (the many-router sweep of a large mesh time-slice). The
 * lookup checksum is compared against one accumulated from the
 * generated option lists, so the bench doubles as a differential
 * check.
 *
 * Construction rows. `mesh16_all_pairs_build_mentries_s` times
 * routing::build_xy plus System::freeze_tables on a 16x16 mesh with
 * all-pairs flows — the staged-record append and the sort-merge bulk
 * load that dominate System construction — as millions of routing
 * entries per second (a rate, so the regression gate applies to it;
 * wall-second rows under the gate's 0.25 s floor are not gated).
 * `mesh16_all_pairs_route_entries` is the exact entry count, so a
 * builder change that alters the table shape fails the comparison.
 *
 * All rows feed the perf-regression harness
 * (scripts/check_bench_regression.py) via --json=PATH, and --quick
 * shortens the repetition counts with unchanged row names.
 */
#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flat_table.h"
#include "net/routing_table.h"

using namespace hornet;
using namespace hornet::benchutil;

namespace {

JsonReport report("bench_route_lookup");

using FlatTable = common::FlatTable<net::RouteKey, net::RouteResult,
                                    net::RouteKeyHash>;

/** Split-mix PRNG: stable workload across standard libraries. */
struct Draw
{
    std::uint64_t s;
    explicit Draw(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    operator()()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t
    below(std::uint64_t n)
    {
        return (*this)() % n;
    }
};

/** One lookup of the sequence: which table, which key. */
using Probe = std::pair<std::uint32_t, net::RouteKey>;

/** The frozen tables, the shuffled lookup sequence, and the checksum
 *  one pass over the sequence must produce. */
struct Workload
{
    std::vector<FlatTable> flats;
    std::vector<Probe> seq;
    double expected = 0.0;
};

Workload
make_workload(std::uint32_t tables, std::uint32_t keys_per_table,
              std::uint64_t seed)
{
    Draw d(seed);
    Workload w;
    w.flats.resize(tables);
    std::vector<net::RouteResult> opts;
    for (std::uint32_t t = 0; t < tables; ++t) {
        std::set<std::pair<NodeId, FlowId>> seen;
        w.flats[t].begin_build(keys_per_table, 2 * keys_per_table);
        while (seen.size() < keys_per_table) {
            net::RouteKey k{static_cast<NodeId>(d.below(5)),
                            static_cast<FlowId>(d.below(1u << 20))};
            if (!seen.insert({k.prev_node, k.flow}).second)
                continue; // duplicate draw
            opts.clear();
            const std::size_t n = 1 + d.below(2);
            for (std::size_t i = 0; i < n; ++i)
                opts.push_back({static_cast<NodeId>(d.below(64)),
                                k.flow,
                                0.5 * static_cast<double>(1 + d.below(4))});
            w.flats[t].add_entry(k, opts.data(), opts.size());
            w.seq.emplace_back(t, k);
            w.expected += static_cast<double>(opts.front().next_node);
            w.expected += common::flat_total_weight(opts.data(), n);
        }
    }
    // Shuffle the probe order (Fisher-Yates on the stable PRNG): the
    // cold regime must not walk tables in construction order.
    for (std::size_t i = w.seq.size(); i > 1; --i)
        std::swap(w.seq[i - 1], w.seq[d.below(i)]);
    return w;
}

/** Frozen lookup work: one probe, precomputed total. Returns the
 *  checksum. */
double
run_flat(const Workload &w, unsigned reps)
{
    double acc = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        for (const auto &[t, key] : w.seq) {
            const FlatTable::Entry *e = w.flats[t].lookup(key);
            acc += static_cast<double>(e->front().next_node);
            acc += e->total_weight;
        }
    }
    return acc;
}

/** Dead-code-elimination sink: every timed run's checksum lands here,
 *  so the optimizer cannot drop the lookup loops. */
volatile double g_sink;

/** Fastest of three timed repetitions, in Mlookups/s. @p fn returns
 *  its checksum (stored into g_sink so the work is observable). */
template <typename Fn>
double
rate_of(Fn fn, std::uint64_t lookups)
{
    double best = 0.0;
    for (int i = 0; i < 3; ++i) {
        const double secs = wall_seconds([&] { g_sink = fn(); });
        best = std::max(best, static_cast<double>(lookups) / secs / 1e6);
    }
    return best;
}

/** Measure one lookup regime and emit its row. */
void
regime(const char *name, const Workload &w, unsigned reps)
{
    const std::uint64_t lookups =
        static_cast<std::uint64_t>(w.seq.size()) * reps;
    // Every term is a small multiple of 0.5, so both sums are exact
    // whatever order the shuffled probes add them in.
    if (run_flat(w, 1) != w.expected)
        fatal("flat table lookups diverged from the generated options");
    const double flat_rate =
        rate_of([&] { return run_flat(w, reps); }, lookups);
    std::printf("%s,%zu,%.1f\n", name, w.seq.size(), flat_rate);
    char row[64];
    std::snprintf(row, sizeof row, "%s_flat_mlookups_s", name);
    report.higher_is_better(row, flat_rate);
}

/** Build and freeze 16x16 all-pairs XY routing tables @p reps times;
 *  emit the best build rate and the exact entry count. */
void
construction(unsigned reps)
{
    const net::Topology topo = net::Topology::mesh2d(16, 16);
    const auto flows = traffic::flows_all_pairs(topo.num_nodes());
    double best = 0.0;
    std::uint64_t entries = 0;
    for (unsigned r = 0; r < reps; ++r) {
        sim::System sys(topo, net::NetworkConfig{}, 1);
        const double secs = wall_seconds([&] {
            net::routing::build_xy(sys.network(), flows);
            sys.freeze_tables();
        });
        entries = 0;
        for (NodeId n = 0; n < topo.num_nodes(); ++n)
            entries += sys.network().router(n).routing_table().size();
        best = std::max(best, static_cast<double>(entries) / secs / 1e6);
    }
    std::printf("mesh16_all_pairs,%llu,%.2f\n",
                static_cast<unsigned long long>(entries), best);
    report.higher_is_better("mesh16_all_pairs_build_mentries_s", best);
    report.exact("mesh16_all_pairs_route_entries",
                 static_cast<double>(entries));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = BenchCli::parse(argc, argv);

    std::printf("# Frozen flat route-table lookups\n");
    std::printf("regime,keys,flat_mlookups_s\n");

    // Hot: one router-sized table, resident in cache.
    const Workload hot = make_workload(1, 256, 0x407e);
    regime("hot", hot, cli.quick ? 4000 : 16000);

    // Cold: many router tables, each probe starting from a cold line.
    const Workload cold = make_workload(128, 512, 0xc01d);
    regime("cold", cold, cli.quick ? 8 : 32);

    std::printf("# Routing-table construction (build_xy + freeze)\n");
    std::printf("workload,entries,build_mentries_s\n");
    construction(cli.quick ? 3 : 5);

    report.write_if_requested(cli);
    return 0;
}
