/**
 * @file
 * Benchmark program: runs one named workload for a time budget and
 * prints, as its last stdout line, one JSON record holding every
 * operation's raw timings and result fingerprints, the end-to-end
 * metrics, and (traced mode) the per-layer metrics timed around the
 * library's public calls. perfbench/run.py builds this program, applies
 * the correctness gates to the record and prints the final result.
 *
 *   hornet_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * It only calls public functions of traffic, net, sim, mips
 * and mem and reads their public stats structs; it changes nothing in
 * the library. Every workload is lockstep (cycle-accurate), so a
 * workload's stats_fingerprint depends on its inputs only: every
 * operation of one invocation must produce the same fingerprint,
 * whatever the thread count or construction path.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "mem/tile_mem.h"
#include "mips/core.h"
#include "net/routing/builders.h"
#include "sim/job_engine.h"
#include "sim/system.h"
#include "sim/system_blueprint.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"
#include "traffic/system_builder.h"
#include "workloads/programs.h"

namespace {

using namespace hornet;

// ---------------------------------------------------------------------
// Clocks, resource usage and small statistics.
// ---------------------------------------------------------------------

double
mono()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpu_time()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Peak resident set after the process's first operation: what one
 *  simulation costs a process that runs only it. Later operations can
 *  only add allocator retention (per-thread malloc arenas), which
 *  varies from run to run. */
double first_op_rss_mb = 0.0;

/** Seconds since @p t, and reset @p t to now (lap timer). */
double
lap(double &t)
{
    const double now = mono();
    const double d = now - t;
    t = now;
    return d;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0,1]) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p * v.size())), 1, v.size());
    return v[rank - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Minimal JSON output (numbers keep all their digits; fingerprints are
// hex strings so no JSON reader rounds them).
// ---------------------------------------------------------------------

std::string
jnum(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

std::string
jint(std::uint64_t x)
{
    return std::to_string(x);
}

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jhex(std::uint64_t x)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", x);
    return buf;
}

/** Ordered JSON object under construction. */
class Obj
{
  public:
    Obj &
    add(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "" : ", ") + jstr(key) + ": " + raw;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

template <class T, class F>
std::string
jarr(const std::vector<T> &v, F &&fmt)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + fmt(v[i]);
    return out + "]";
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

std::string
schedule_of(const sim::EngineRunStats &e)
{
    return e.event_fine ? "event-fine" : e.event_driven ? "event" : "poll";
}

// ---------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------

constexpr unsigned kThreads = 4;

struct MeshSpec
{
    std::uint32_t side;
    const char *pattern;
    const char *flows; ///< routing.flows: all_pairs | pattern
    double rate;
    std::uint32_t packet_size;
    const char *schedule;
    Cycle cycles;
};

// 16x16 at low load: all-pairs construction is half of the wall time,
// and event-fine skips most component-cycles.
const MeshSpec kMesh16{16, "uniform", "all_pairs", 0.05, 8, "event-fine",
                       15000};
// 32x32 past saturation: one flow per node (cheap set-up), full VC
// buffers; the time goes to the router pipeline and the barriers.
const MeshSpec kMesh32{32, "shuffle", "pattern", 0.10, 8, "poll", 3500};

Config
mesh_config(const MeshSpec &m, std::uint64_t seed)
{
    char text[1024];
    std::snprintf(text, sizeof text,
                  "[topology]\nkind = mesh\nwidth = %u\nheight = %u\n"
                  "[routing]\nscheme = xy\nflows = %s\n"
                  "[traffic]\nkind = synthetic\npattern = %s\n"
                  "rate = %.17g\npacket_size = %u\n"
                  "[sim]\nseed = %" PRIu64 "\nmax_cycles = %" PRIu64 "\n"
                  "threads = %u\nsync = cycle-accurate\nschedule = %s\n",
                  m.side, m.side, m.flows, m.pattern, m.rate, m.packet_size,
                  seed, static_cast<std::uint64_t>(m.cycles), kThreads,
                  m.schedule);
    return Config::from_string(text);
}

// Sweep: many short drained jobs from one blueprint, so per-job
// overhead (instantiate / reset_for_rerun / queue) dominates.
constexpr std::uint32_t kSweepSide = 12;
constexpr std::size_t kSweepPoints = 400;
constexpr Cycle kSweepStopAt = 500;
constexpr unsigned kSweepWorkers = 4;

Config
sweep_config()
{
    char text[512];
    std::snprintf(text, sizeof text,
                  "[topology]\nkind = mesh\nwidth = %u\nheight = %u\n"
                  "[sim]\nmax_cycles = 1000000\nthreads = 1\n"
                  "sync = cycle-accurate\nschedule = event-fine\n"
                  "stop_when_done = true\n",
                  kSweepSide, kSweepSide);
    return Config::from_string(text);
}

/** Seed of sweep point @p i: splitmix64 of the workload seed and the
 *  point index, so every workload seed gives a distinct seed set. */
std::uint64_t
point_seed(std::uint64_t seed, std::size_t i)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) & 0x7fffffffffffull;
}

// MIPS: a compute/memory kernel on every core of a 16x16 mesh, two
// memory controllers in opposite corners.
constexpr std::uint32_t kMipsSide = 16;
constexpr std::uint32_t kMipsOptions = 96;
constexpr std::uint32_t kMipsRounds = 1;
constexpr Cycle kMipsCycleLimit = 20000000;

// ---------------------------------------------------------------------
// One simulated run and what it reports.
// ---------------------------------------------------------------------

/** Per-layer times of one split (traced) set-up. */
struct SetupSplit
{
    double topology = 0, network = 0, construct = 0, flows = 0,
           routing = 0, frontends = 0, freeze = 0;
    double sum() const
    {
        return topology + network + construct + flows + routing +
               frontends + freeze;
    }
};

struct RunOp
{
    std::string kind;
    unsigned threads = kThreads;
    double setup_s = 0, run_s = 0, collect_s = 0, total_s = 0;
    double cpu_s = 0, run_cpu_s = 0;
    Cycle end_cycle = 0;
    std::uint64_t fp = 0;
    SystemStats stats;
    sim::EngineRunStats engine;
    bool error = false;
    std::string error_text;
    /** The run must drain (stop_when_done): injected == delivered. */
    bool drains = false;
    // MIPS only.
    bool halted = true;
    std::vector<std::int64_t> checksums;
    std::uint64_t instructions = 0, mem_stall_cycles = 0;
    mem::MemStats mem;
    // Traced set-up split (mesh) / construction timings.
    SetupSplit split;
    double build_system_s = 0, machine_construct_s = 0;
    std::uint64_t routing_entries = 0, flows = 0;

    std::string
    json() const
    {
        Obj o;
        o.add("kind", jstr(kind))
            .add("threads", jint(threads))
            .add("setup_s", jnum(setup_s))
            .add("run_s", jnum(run_s))
            .add("collect_s", jnum(collect_s))
            .add("total_s", jnum(total_s))
            .add("cpu_s", jnum(cpu_s))
            .add("end_cycle", jint(end_cycle))
            .add("fingerprint", jhex(fp))
            .add("flits_injected", jint(stats.total.flits_injected))
            .add("flits_delivered", jint(stats.total.flits_delivered))
            .add("schedule", jstr(schedule_of(engine)))
            .add("threads_pinned", engine.threads_pinned ? "true" : "false")
            .add("drains", drains ? "true" : "false")
            .add("halted", halted ? "true" : "false");
        if (!checksums.empty())
            o.add("checksums", jarr(checksums, [](std::int64_t c) {
                      return std::to_string(c);
                  }));
        if (error)
            o.add("error", jstr(error_text));
        return o.str();
    }
};

std::uint64_t
routing_entries(const sim::System &sys)
{
    std::uint64_t n = 0;
    for (NodeId r = 0; r < sys.network().num_nodes(); ++r)
        n += sys.network().router(r).routing_table().size();
    return n;
}

/** Run @p sys and collect its stats into @p op (run, collect and CPU
 *  times; the fingerprint is the check, outside the timed window). */
void
run_and_collect(sim::System &sys, const sim::RunOptions &ro, RunOp &op)
{
    const double c0 = cpu_time();
    double t = mono();
    op.end_cycle = sys.run(ro);
    op.run_s = lap(t);
    op.run_cpu_s = cpu_time() - c0;
    op.stats = sys.collect_stats();
    op.collect_s = lap(t);
    op.engine = sys.last_engine_stats();
    op.fp = stats_fingerprint(op.stats);
}

/** Wrap one operation: total wall and CPU time, and any exception
 *  thrown by the library recorded as a failed operation. */
RunOp
measured(const std::string &kind, unsigned threads,
         const std::function<void(RunOp &)> &body)
{
    RunOp op;
    op.kind = kind;
    op.threads = threads;
    const double c0 = cpu_time();
    const double t0 = mono();
    try {
        body(op);
    } catch (const std::exception &e) {
        op.error = true;
        op.error_text = e.what();
    }
    op.total_s = op.setup_s + op.run_s + op.collect_s;
    if (op.total_s == 0.0)
        op.total_s = mono() - t0;
    op.cpu_s = cpu_time() - c0;
    return op;
}

// --- mesh workloads ---------------------------------------------------

/** The untraced path: traffic::build_system + freeze, run, collect. */
RunOp
mesh_build_system_op(const Config &cfg, unsigned threads)
{
    return measured(threads == kThreads ? "build_system" : "build_system_1t",
                    threads, [&](RunOp &op) {
                        double t = mono();
                        auto sys = traffic::build_system(cfg);
                        op.build_system_s = mono() - t;
                        sys->freeze_tables();
                        op.split.freeze = mono() - t - op.build_system_s;
                        op.setup_s = lap(t);
                        sim::RunOptions ro =
                            traffic::run_options_from_config(cfg);
                        ro.threads = threads;
                        run_and_collect(*sys, ro, op);
                    });
}

/**
 * The traced path: the public calls traffic::build_system makes for
 * XY routing and synthetic traffic, each timed. The resulting system
 * must have the same fingerprint as the build_system one, so the split
 * cannot drift from traffic::build_system.
 */
RunOp
mesh_split_op(const Config &cfg)
{
    return measured("split", kThreads, [&](RunOp &op) {
        SetupSplit &s = op.split;
        double t = mono();
        const double t0 = t;
        const net::Topology topo = traffic::topology_from_config(cfg);
        s.topology = lap(t);
        const net::NetworkConfig nc = traffic::network_from_config(cfg);
        s.network = lap(t);
        auto sys = std::make_unique<sim::System>(
            topo, nc, static_cast<std::uint64_t>(cfg.get_int("sim.seed", 1)));
        s.construct = lap(t);
        const std::vector<NodeId> hosts = topo.hosts();
        const std::string pattern_name =
            cfg.get_string("traffic.pattern", "uniform");
        const traffic::Pattern pattern =
            traffic::pattern_by_name(pattern_name, topo.num_nodes());
        const std::vector<net::FlowSpec> flows =
            cfg.get_string("routing.flows", "") == "all_pairs"
                ? traffic::flows_all_pairs(hosts)
                : traffic::flows_for_pattern(hosts, pattern);
        s.flows = lap(t);
        net::routing::build_xy(sys->network(), flows);
        s.routing = lap(t);
        traffic::SyntheticConfig sc;
        sc.pattern = pattern;
        sc.packet_size = static_cast<std::uint32_t>(
            cfg.get_int("traffic.packet_size", 8));
        sc.rate = cfg.get_double("traffic.rate", 0.1);
        for (NodeId n : hosts)
            sys->add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                     sys->tile(n), sc));
        s.frontends = lap(t);
        sys->freeze_tables();
        s.freeze = lap(t);
        op.setup_s = t - t0;
        op.flows = flows.size();
        op.routing_entries = routing_entries(*sys);
        run_and_collect(*sys, traffic::run_options_from_config(cfg), op);
    });
}

// --- MIPS workload ----------------------------------------------------

mips::MipsMachineConfig
mips_config(std::uint64_t seed)
{
    mips::MipsMachineConfig mc;
    mc.program = workloads::blackscholes_program(kMipsOptions, kMipsRounds);
    mc.mem.mc_nodes = {0, kMipsSide * kMipsSide - 1};
    mc.seed = seed;
    return mc;
}

/**
 * One MIPS run: machine construction + table freeze, then
 * System::run with pinned options (poll, stop_when_done) rather than
 * MipsMachine::run_until_done, which defers the scheduler to the
 * HORNET_SCHEDULE environment variable.
 */
RunOp
mips_op(const mips::MipsMachineConfig &mc, unsigned threads)
{
    return measured(threads == kThreads ? "machine" : "machine_1t", threads,
                    [&](RunOp &op) {
                        const net::Topology topo =
                            net::Topology::mesh2d(kMipsSide, kMipsSide);
                        double t = mono();
                        mips::MipsMachine m(topo, mc);
                        op.machine_construct_s = mono() - t;
                        m.system().freeze_tables();
                        op.split.freeze =
                            mono() - t - op.machine_construct_s;
                        op.setup_s = lap(t);
                        sim::RunOptions ro;
                        ro.max_cycles = kMipsCycleLimit;
                        ro.threads = threads;
                        ro.sync = "cycle-accurate";
                        ro.schedule = "poll";
                        ro.stop_when_done = true;
                        run_and_collect(m.system(), ro, op);
                        op.drains = true;
                        op.halted = m.all_halted();
                        op.routing_entries = routing_entries(m.system());
                        for (NodeId n = 0; n < m.num_cores(); ++n) {
                            const auto &core = m.core(n);
                            op.checksums.push_back(
                                core.output().size() == 1
                                    ? static_cast<std::uint32_t>(
                                          core.output()[0])
                                    : -1);
                            op.instructions += core.stats().instructions;
                            op.mem_stall_cycles +=
                                core.stats().mem_stall_cycles;
                            const mem::MemStats &ms =
                                m.core(n).memory().stats();
                            op.mem.l1_hits += ms.l1_hits;
                            op.mem.l1_misses += ms.l1_misses;
                            op.mem.dir_requests += ms.dir_requests;
                            op.mem.miss_latency.merge(ms.miss_latency);
                        }
                    });
}

// --- sweep workload ---------------------------------------------------

/** One sweep: blueprint set-up, then every point through JobEngine.
 *  Keeps per-job summaries only, not the jobs' full statistics. */
struct SweepOp
{
    std::string kind;
    unsigned workers = kSweepWorkers;
    SetupSplit split;
    double setup_s = 0, sweep_s = 0, total_s = 0, cpu_s = 0;
    double sweep_cpu_s = 0;
    std::vector<std::uint64_t> injected, delivered; ///< flits, per job
    std::vector<double> job_walls;                  ///< run seconds, per job
    std::size_t reused = 0;  ///< jobs that reran a cached System
    SystemStats sum;         ///< traffic and scheduler counters, all jobs
    sim::EngineRunStats engine; ///< scheduler of the first job
    std::uint64_t folded = 0;
    std::uint64_t cycles = 0;
    std::uint64_t flows = 0, routing_entries = 0;
    bool error = false;
    std::string error_text;

    std::string
    json() const
    {
        Obj o;
        o.add("kind", jstr(kind))
            .add("workers", jint(workers))
            .add("setup_s", jnum(setup_s))
            .add("sweep_s", jnum(sweep_s))
            .add("total_s", jnum(total_s))
            .add("cpu_s", jnum(cpu_s))
            .add("jobs", jint(injected.size()))
            .add("end_cycles", jint(cycles))
            .add("fingerprint", jhex(folded))
            .add("schedule", jstr(schedule_of(engine)))
            .add("threads_pinned", engine.threads_pinned ? "true" : "false")
            .add("job_flits_injected", jarr(injected, jint))
            .add("job_flits_delivered", jarr(delivered, jint));
        if (error)
            o.add("error", jstr(error_text));
        return o.str();
    }
};

/** FNV-1a fold of the job digests in submission order. */
std::uint64_t
fold_digests(const std::vector<sim::JobResult> &results)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &r : results) {
        for (int b = 0; b < 8; ++b) {
            h ^= (r.digest >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Blueprint set-up of the sweep, each public call timed. */
std::shared_ptr<sim::SystemBlueprint>
sweep_blueprint(const Config &cfg, SweepOp &op)
{
    SetupSplit &s = op.split;
    double t = mono();
    const net::Topology topo = traffic::topology_from_config(cfg);
    s.topology = lap(t);
    const net::NetworkConfig nc = traffic::network_from_config(cfg);
    s.network = lap(t);
    auto bp = std::make_shared<sim::SystemBlueprint>(topo, nc);
    s.construct = lap(t);
    const std::vector<NodeId> hosts = topo.hosts();
    const std::vector<net::FlowSpec> flows = traffic::flows_all_pairs(hosts);
    s.flows = lap(t);
    net::routing::build_xy(bp->network(), flows);
    s.routing = lap(t);
    traffic::SyntheticConfig sc;
    sc.pattern = traffic::pattern_by_name("uniform", topo.num_nodes());
    sc.packet_size = 4;
    sc.rate = 0.05;
    sc.stop_at = kSweepStopAt;
    bp->set_frontend_factory([sc, hosts](sim::System &sys, std::uint64_t) {
        for (NodeId n : hosts)
            sys.add_frontend(n, std::make_unique<traffic::SyntheticInjector>(
                                    sys.tile(n), sc));
    });
    s.frontends = lap(t);
    bp->freeze();
    s.freeze = lap(t);
    op.flows = flows.size();
    op.routing_entries = routing_entries(bp->prototype());
    return bp;
}

void
run_sweep(const std::shared_ptr<sim::SystemBlueprint> &bp, const Config &cfg,
          std::uint64_t seed, SweepOp &op)
{
    const double c0 = cpu_time();
    const double t0 = mono();
    sim::JobEngineOptions eo;
    eo.workers = op.workers;
    sim::JobEngine engine(eo);
    const sim::RunOptions ro = traffic::run_options_from_config(cfg);
    for (std::size_t i = 0; i < kSweepPoints; ++i) {
        sim::Job job;
        job.blueprint = bp;
        job.seed = point_seed(seed, i);
        job.run = ro;
        engine.submit(std::move(job));
    }
    const std::vector<sim::JobResult> results = engine.finish();
    op.sweep_s = mono() - t0;
    op.sweep_cpu_s = cpu_time() - c0;
    op.folded = fold_digests(results);
    for (const auto &r : results) {
        op.cycles += r.end_cycle;
        op.injected.push_back(r.stats.total.flits_injected);
        op.delivered.push_back(r.stats.total.flits_delivered);
        op.job_walls.push_back(r.wall_seconds);
        op.reused += r.reused_system ? 1 : 0;
        op.sum.total.merge(r.stats.total);
        op.sum.tile_cycles_run += r.stats.tile_cycles_run;
        op.sum.comp_cycles_run += r.stats.comp_cycles_run;
        op.sum.comp_cycles_skipped += r.stats.comp_cycles_skipped;
    }
    if (!results.empty()) {
        op.sum.arena_bytes_per_tile = results[0].stats.arena_bytes_per_tile;
        op.engine = results[0].engine;
    }
}

SweepOp
sweep_op(const Config &cfg, std::uint64_t seed, unsigned workers,
         const std::shared_ptr<sim::SystemBlueprint> &reuse_bp = nullptr)
{
    SweepOp op;
    op.kind = workers == kSweepWorkers ? "sweep" : "sweep_1worker";
    op.workers = workers;
    const double c0 = cpu_time();
    try {
        const double t0 = mono();
        auto bp = reuse_bp ? reuse_bp : sweep_blueprint(cfg, op);
        op.setup_s = mono() - t0;
        run_sweep(bp, cfg, seed, op);
    } catch (const std::exception &e) {
        op.error = true;
        op.error_text = e.what();
    }
    op.total_s = op.setup_s + op.sweep_s;
    op.cpu_s = cpu_time() - c0;
    return op;
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

template <class Op, class F>
std::vector<double>
each(const std::vector<Op> &ops, F &&f)
{
    std::vector<double> v;
    for (const auto &op : ops)
        v.push_back(f(op));
    return v;
}

Metrics
run_end_to_end(const std::vector<RunOp> &ops)
{
    Metrics m;
    m["setup_s"] = median(each(ops, [](const RunOp &o) { return o.setup_s; }));
    m["total_s"] = median(each(ops, [](const RunOp &o) { return o.total_s; }));
    m["sim_kcycles_per_s"] = median(each(ops, [](const RunOp &o) {
        return ratio(o.end_cycle / 1000.0, o.run_s);
    }));
    // A single-run workload's job is one whole run (set-up + run +
    // stats), so its job rate is the reciprocal of its total time.
    m["jobs_per_s"] = median(
        each(ops, [](const RunOp &o) { return ratio(1.0, o.total_s); }));
    m["cpu_s"] = median(each(ops, [](const RunOp &o) { return o.cpu_s; }));
    m["peak_rss_mb"] = first_op_rss_mb;
    return m;
}

Metrics
sweep_end_to_end(const std::vector<SweepOp> &ops)
{
    Metrics m;
    m["setup_s"] =
        median(each(ops, [](const SweepOp &o) { return o.setup_s; }));
    m["total_s"] =
        median(each(ops, [](const SweepOp &o) { return o.total_s; }));
    m["sim_kcycles_per_s"] = median(each(ops, [](const SweepOp &o) {
        return ratio(o.cycles / 1000.0, o.sweep_s);
    }));
    m["jobs_per_s"] = median(each(ops, [](const SweepOp &o) {
        return ratio(static_cast<double>(o.injected.size()), o.sweep_s);
    }));
    m["cpu_s"] = median(each(ops, [](const SweepOp &o) { return o.cpu_s; }));
    m["peak_rss_mb"] = first_op_rss_mb;
    return m;
}

/** Every per-layer metric, zero until a workload measures it: a layer
 *  a workload does not exercise reports 0 (see perfbench/README.md). */
Metrics
zero_layers()
{
    Metrics m;
    for (const char *k :
         {"traffic.topology_from_config_s", "traffic.network_from_config_s",
          "traffic.flows_s", "traffic.flows", "traffic.add_frontend_s",
          "traffic.build_system_s", "net.routing.build_s",
          "net.routing.entries", "sim.system.construct_s",
          "sim.system.freeze_tables_s", "sim.system.arena_bytes_per_tile",
          "sim.system.run_s", "sim.system.collect_stats_s",
          "sim.engine.tile_cycles_run_per_flit",
          "sim.engine.comp_cycles_run_per_flit",
          "sim.engine.comp_cycles_skipped_share",
          "sim.engine.run_cpu_per_wall", "sim.engine.speedup_4t_over_1t",
          "net.router.buffer_writes_per_flit",
          "net.router.sa_stalls_per_flit",
          "net.router.credit_stalls_per_flit", "sim.blueprint.build_s",
          "sim.blueprint.freeze_s", "sim.blueprint.instantiate_s",
          "sim.job_engine.job_wall_p50_s", "sim.job_engine.job_wall_p95_s",
          "sim.job_engine.reused_share", "sim.job_engine.worker_busy_share",
          "mips.machine_construct_s", "mips.instructions",
          "mips.kinstr_per_s", "mips.mem_stall_share", "mem.l1_miss_rate",
          "mem.miss_latency_mean_cycles", "mem.dir_requests",
          "setup_split_s", "trace_overhead_s"})
        m[k] = 0.0;
    return m;
}

/** Scheduler and router counters of one run, per delivered flit. */
void
add_stat_layers(Metrics &m, const SystemStats &s)
{
    const double flits = static_cast<double>(s.total.flits_delivered);
    const double comp_grid =
        static_cast<double>(s.comp_cycles_run + s.comp_cycles_skipped);
    m["sim.system.arena_bytes_per_tile"] = s.arena_bytes_per_tile;
    m["sim.engine.tile_cycles_run_per_flit"] =
        ratio(static_cast<double>(s.tile_cycles_run), flits);
    m["sim.engine.comp_cycles_run_per_flit"] =
        ratio(static_cast<double>(s.comp_cycles_run), flits);
    m["sim.engine.comp_cycles_skipped_share"] =
        ratio(static_cast<double>(s.comp_cycles_skipped), comp_grid);
    m["net.router.buffer_writes_per_flit"] =
        ratio(static_cast<double>(s.total.buffer_writes), flits);
    m["net.router.sa_stalls_per_flit"] =
        ratio(static_cast<double>(s.total.sa_stalls), flits);
    m["net.router.credit_stalls_per_flit"] =
        ratio(static_cast<double>(s.total.credit_stalls), flits);
}

/** Traced median total_s minus the untraced median. */
template <class Op>
double
trace_overhead(const std::vector<Op> &untraced, const std::vector<Op> &traced)
{
    const auto total = [](const Op &o) { return o.total_s; };
    return median(each(traced, total)) - median(each(untraced, total));
}

/** Medians of the traced set-up split (mesh and sweep workloads). */
template <class Op>
void
add_split_layers(Metrics &m, const std::vector<Op> &traced)
{
    const auto med = [&](double SetupSplit::*f) {
        return median(each(traced, [&](const Op &o) { return o.split.*f; }));
    };
    m["traffic.topology_from_config_s"] = med(&SetupSplit::topology);
    m["traffic.network_from_config_s"] = med(&SetupSplit::network);
    m["traffic.flows_s"] = med(&SetupSplit::flows);
    m["traffic.add_frontend_s"] = med(&SetupSplit::frontends);
    m["net.routing.build_s"] = med(&SetupSplit::routing);
    m["sim.system.construct_s"] = med(&SetupSplit::construct);
    m["setup_split_s"] =
        median(each(traced, [](const Op &o) { return o.split.sum(); }));
    m["traffic.flows"] = static_cast<double>(traced[0].flows);
    m["net.routing.entries"] = static_cast<double>(traced[0].routing_entries);
}

/** Layer metrics shared by the single-run workloads: medians over the
 *  traced runs, the 1-thread rerun for the speed-up, the tracing
 *  overhead against the untraced runs. */
void
add_run_layers(Metrics &m, const std::vector<RunOp> &untraced,
               const std::vector<RunOp> &traced, const RunOp &one_thread)
{
    const auto med = [&](auto f) { return median(each(traced, f)); };
    m["sim.system.freeze_tables_s"] =
        med([](const RunOp &o) { return o.split.freeze; });
    m["sim.system.run_s"] = med([](const RunOp &o) { return o.run_s; });
    m["sim.system.collect_stats_s"] =
        med([](const RunOp &o) { return o.collect_s; });
    m["sim.engine.run_cpu_per_wall"] =
        med([](const RunOp &o) { return ratio(o.run_cpu_s, o.run_s); });
    m["sim.engine.speedup_4t_over_1t"] =
        ratio(one_thread.run_s, m["sim.system.run_s"]);
    m["net.routing.entries"] = static_cast<double>(traced[0].routing_entries);
    m["trace_overhead_s"] = trace_overhead(untraced, traced);
    add_stat_layers(m, traced[0].stats);
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Outcome
{
    std::vector<std::string> ops; ///< JSON of every operation
    Metrics metrics;
};

/**
 * Call @p step(i) for i = 0, 1, ... until the next call, estimated to
 * take as long as the last one, would end after @p deadline; at least
 * @p min_ops calls.
 */
template <class F>
void
loop_until(double deadline, std::size_t min_ops, F &&step)
{
    double last = 0.0;
    for (std::size_t i = 0; i < min_ops || mono() + last < deadline; ++i) {
        const double t0 = mono();
        step(i);
        last = mono() - t0;
        if (first_op_rss_mb == 0.0)
            first_op_rss_mb = peak_rss_mb();
    }
}

/** Untraced operations until @p deadline (at least 3). */
template <class Op, class F>
std::vector<Op>
repeat_until(double deadline, F &&op)
{
    std::vector<Op> ops;
    loop_until(deadline, 3, [&](std::size_t) { ops.push_back(op()); });
    return ops;
}

/** Traced mode: untraced and traced operations alternate until
 *  @p deadline (at least two of each), so host drift during the run
 *  affects both sides of trace_overhead_s alike. */
template <class Op, class F, class G>
std::pair<std::vector<Op>, std::vector<Op>>
alternate_until(double deadline, F &&untraced_op, G &&traced_op)
{
    std::vector<Op> untraced, traced;
    loop_until(deadline, 4, [&](std::size_t i) {
        if (i % 2 == 0)
            untraced.push_back(untraced_op());
        else
            traced.push_back(traced_op());
    });
    return {std::move(untraced), std::move(traced)};
}

template <class Op>
void
append_json(Outcome &out, const std::vector<Op> &ops)
{
    for (const auto &op : ops)
        out.ops.push_back(op.json());
}

Outcome
mesh_workload(const MeshSpec &spec, const Args &a, double start)
{
    const Config cfg = mesh_config(spec, a.seed);
    const auto untraced_op = [&] { return mesh_build_system_op(cfg, kThreads); };
    Outcome out;
    if (!a.trace) {
        auto ops = repeat_until<RunOp>(start + a.seconds, untraced_op);
        append_json(out, ops);
        out.metrics = run_end_to_end(ops);
        return out;
    }
    auto [untraced, traced] = alternate_until<RunOp>(
        start + 0.65 * a.seconds, untraced_op,
        [&] { return mesh_split_op(cfg); });
    const RunOp one = mesh_build_system_op(cfg, 1);
    append_json(out, untraced);
    append_json(out, traced);
    out.ops.push_back(one.json());

    Metrics &m = out.metrics = zero_layers();
    add_run_layers(m, untraced, traced, one);
    add_split_layers(m, traced);
    m["traffic.build_system_s"] = one.build_system_s;
    return out;
}

Outcome
mips_workload(const Args &a, double start)
{
    const mips::MipsMachineConfig mc = mips_config(a.seed);
    const auto op4 = [&] { return mips_op(mc, kThreads); };
    Outcome out;
    if (!a.trace) {
        auto ops = repeat_until<RunOp>(start + a.seconds, op4);
        append_json(out, ops);
        out.metrics = run_end_to_end(ops);
        return out;
    }
    auto [untraced, traced] =
        alternate_until<RunOp>(start + 0.5 * a.seconds, op4, op4);
    const RunOp one = mips_op(mc, 1);
    append_json(out, untraced);
    append_json(out, traced);
    out.ops.push_back(one.json());

    Metrics &m = out.metrics = zero_layers();
    const auto med = [&](auto f) { return median(each(traced, f)); };
    const RunOp &t0 = traced[0];
    m["mips.machine_construct_s"] =
        med([](const RunOp &o) { return o.machine_construct_s; });
    m["setup_split_s"] = med([](const RunOp &o) { return o.setup_s; });
    m["traffic.flows"] =
        static_cast<double>(kMipsSide * kMipsSide) *
        (kMipsSide * kMipsSide - 1); // MipsMachine routes all pairs
    m["mips.instructions"] = static_cast<double>(t0.instructions);
    m["mips.kinstr_per_s"] = med([](const RunOp &o) {
        return ratio(o.instructions / 1000.0, o.run_s);
    });
    m["mips.mem_stall_share"] =
        ratio(static_cast<double>(t0.mem_stall_cycles),
              static_cast<double>(t0.checksums.size()) *
                  static_cast<double>(t0.end_cycle));
    m["mem.l1_miss_rate"] =
        ratio(static_cast<double>(t0.mem.l1_misses),
              static_cast<double>(t0.mem.l1_hits + t0.mem.l1_misses));
    m["mem.miss_latency_mean_cycles"] = t0.mem.miss_latency.mean();
    m["mem.dir_requests"] = static_cast<double>(t0.mem.dir_requests);
    add_run_layers(m, untraced, traced, one);
    return out;
}

Outcome
sweep_workload(const Args &a, double start)
{
    const Config cfg = sweep_config();
    const auto op4 = [&] { return sweep_op(cfg, a.seed, kSweepWorkers); };
    Outcome out;
    if (!a.trace) {
        auto ops = repeat_until<SweepOp>(start + a.seconds, op4);
        append_json(out, ops);
        out.metrics = sweep_end_to_end(ops);
        return out;
    }
    auto [untraced, traced] =
        alternate_until<SweepOp>(start + 0.5 * a.seconds, op4, op4);
    // Direct instantiate calls on the traced sweep's blueprint shape.
    SweepOp probe;
    auto bp = sweep_blueprint(cfg, probe);
    std::vector<double> inst;
    for (int i = 0; i < 7; ++i) {
        const double t0 = mono();
        auto sys = bp->instantiate(point_seed(a.seed, i));
        inst.push_back(mono() - t0);
    }
    const SweepOp one = sweep_op(cfg, a.seed, 1, bp);
    append_json(out, untraced);
    append_json(out, traced);
    out.ops.push_back(one.json());

    Metrics &m = out.metrics = zero_layers();
    add_split_layers(m, traced);
    const auto med = [&](auto f) { return median(each(traced, f)); };
    m["sim.blueprint.build_s"] = med([](const SweepOp &o) {
        return o.split.construct + o.split.routing;
    });
    m["sim.blueprint.freeze_s"] =
        med([](const SweepOp &o) { return o.split.freeze; });
    m["sim.blueprint.instantiate_s"] = median(inst);
    m["sim.engine.run_cpu_per_wall"] = med([](const SweepOp &o) {
        return ratio(o.sweep_cpu_s, o.sweep_s);
    });
    m["sim.engine.speedup_4t_over_1t"] =
        ratio(one.sweep_s, med([](const SweepOp &o) { return o.sweep_s; }));
    m["trace_overhead_s"] = trace_overhead(untraced, traced);

    // Job-level layers of the first traced sweep.
    const SweepOp &t0 = traced[0];
    add_stat_layers(m, t0.sum);
    const double jobs = static_cast<double>(t0.job_walls.size());
    double busy = 0.0;
    for (double w : t0.job_walls)
        busy += w;
    m["sim.job_engine.job_wall_p50_s"] = percentile(t0.job_walls, 0.5);
    m["sim.job_engine.job_wall_p95_s"] = percentile(t0.job_walls, 0.95);
    m["sim.job_engine.reused_share"] = ratio(t0.reused, jobs);
    m["sim.job_engine.worker_busy_share"] =
        ratio(busy, kSweepWorkers * t0.sweep_s);
    return out;
}

bool
parse_args(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parse_args(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: hornet_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    const double start = mono();
    Outcome out;
    Obj rec;
    rec.add("workload", jstr(a.workload))
        .add("seed", jint(a.seed))
        .add("trace", a.trace ? "1" : "0");
    if (a.workload == "mesh16_uniform_lowload") {
        out = mesh_workload(kMesh16, a, start);
    } else if (a.workload == "mesh32_shuffle_saturated") {
        out = mesh_workload(kMesh32, a, start);
    } else if (a.workload == "sweep12_seeds") {
        out = sweep_workload(a, start);
    } else if (a.workload == "mips16_blackscholes") {
        std::vector<std::int64_t> expected;
        for (NodeId n = 0; n < kMipsSide * kMipsSide; ++n)
            expected.push_back(workloads::blackscholes_expected_checksum(
                n, kMipsOptions, kMipsRounds));
        rec.add("expected_checksums", jarr(expected, [](std::int64_t c) {
                    return std::to_string(c);
                }));
        out = mips_workload(a, start);
    } else {
        std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
        return 2;
    }
    Obj metrics;
    for (const auto &[k, v] : out.metrics)
        metrics.add(k, jnum(v));
    Obj host;
    host.add("nproc", jint(std::thread::hardware_concurrency()))
        .add("cpu_model", jstr(cpu_model()))
        .add("compiler", jstr(kCompiler))
        .add("build_type", jstr(HB_BUILD_TYPE));
    rec.add("host", host.str())
        .add("wall_s", jnum(mono() - start))
        .add("metrics", metrics.str())
        .add("ops", jarr(out.ops, [](const std::string &s) { return s; }));
    std::printf("%s\n", rec.str().c_str());
    return 0;
}
