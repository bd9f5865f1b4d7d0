/**
 * @file
 * Replay benchmark: replays the synthetic paper ensemble through the
 * public API of trace, sim, core, cache and storage, and prints one
 * JSON result line.
 *
 *   replay_bench --workload NAME --seed N --seconds S --trace 0|1
 *                --store-dir DIR
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation
 * beyond the per-batch clock reads those metrics are made of.
 * --trace 1 measures the per-layer metrics: it wraps the trace reader
 * and every storage engine in timing decorators, times the driver's
 * calls into the appliance, and replays each trace untraced and traced
 * so the tracing overhead is measured in the same process. It also
 * runs the FileBackend probe, whose store lives in --store-dir.
 *
 * Both modes run the correctness gate (see README.md) and exit 1 when
 * any check fails, after printing the result line with
 * "correct": false.
 */

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/appliance.hpp"
#include "sim/batch.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "timing_backend.hpp"
#include "trace/ensemble.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_reader.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

using namespace sievestore;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kBatch = trace::kDefaultBatchRequests;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of a sample set (reorders it). */
double
quantile(std::vector<uint64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double n = static_cast<double>(v.size());
    const auto rank = static_cast<size_t>(std::ceil(q * n));
    const size_t idx = std::min(v.size(), std::max<size_t>(1, rank)) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx),
                     v.end());
    return static_cast<double>(v[idx]);
}

/** CPUs this process may run on (what `nproc` prints). */
size_t
cpuBudget()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<size_t>(CPU_COUNT(&set));
}

/** Threads of this process right now. */
size_t
liveThreads()
{
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return 0;
    size_t n = 0;
    while (const dirent *e = readdir(dir))
        if (e->d_name[0] != '.')
            ++n;
    closedir(dir);
    return n;
}

const char *
filesystemName(const std::string &path)
{
    struct statfs fs;
    if (statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0xEF53UL: return "ext4";
      case 0x01021994UL: return "tmpfs";
      case 0x794C7630UL: return "overlayfs";
      case 0x58465342UL: return "xfs";
      case 0x9123683EUL: return "btrfs";
      default: return "other";
    }
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- correctness gate ------------------------------------------------------

struct Gate
{
    uint64_t checks = 0;
    uint64_t failures = 0;

    void
    check(bool ok, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)))
    {
        ++checks;
        if (ok)
            return;
        ++failures;
        std::va_list ap;
        va_start(ap, fmt);
        std::fprintf(stderr, "GATE FAILED: ");
        std::vfprintf(stderr, fmt, ap);
        std::fprintf(stderr, "\n");
        va_end(ap);
    }
};

/** Model-side report fields: the paper's accounting, which must not
 * depend on the driver, the backend or the instrumentation. */
bool
sameModelDay(const core::DailyReport &a, const core::DailyReport &b)
{
    return a.accesses == b.accesses && a.read_accesses == b.read_accesses &&
           a.hits == b.hits && a.read_hits == b.read_hits &&
           a.write_hits == b.write_hits &&
           a.allocation_write_blocks == b.allocation_write_blocks &&
           a.batch_moved_blocks == b.batch_moved_blocks &&
           a.ssd_read_ios == b.ssd_read_ios &&
           a.ssd_write_ios == b.ssd_write_ios &&
           a.ssd_alloc_ios == b.ssd_alloc_ios &&
           a.tune_t1 == b.tune_t1 && a.tune_t2 == b.tune_t2 &&
           a.tune_switches == b.tune_switches;
}

/** Per node, per calendar day reports of one replay. */
using ModelDays = std::vector<std::vector<core::DailyReport>>;

bool
sameModel(const ModelDays &a, const ModelDays &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t n = 0; n < a.size(); ++n) {
        if (a[n].size() != b[n].size())
            return false;
        for (size_t d = 0; d < a[n].size(); ++d)
            if (!sameModelDay(a[n][d], b[n][d]))
                return false;
    }
    return true;
}

// --- trace-layer decorator -------------------------------------------------

/**
 * Reader wrapper timing each nextBatch() call (decode time) and the
 * interval between successive calls (the consumer's cycle per decode
 * batch). It also counts the process's threads on the first call,
 * when a parallel driver has started all of its workers.
 */
class TimedReader final : public trace::TraceReader
{
  public:
    /** `cycles` must have capacity for every batch of the trace: it
     * is appended to from inside the driver, which may not allocate. */
    TimedReader(trace::TraceReader &inner, std::vector<uint64_t> *cycles)
        : inner_(inner), cycles_(cycles)
    {
    }

    bool
    next(trace::Request &out) override
    {
        return inner_.next(out);
    }

    size_t
    nextBatch(std::span<trace::Request> out) override
    {
        const uint64_t t0 = nowNs();
        if (calls_ == 0)
            threads_ = liveThreads();
        else if (cycles_ && cycles_->size() < cycles_->capacity())
            cycles_->push_back(t0 - last_entry_);
        last_entry_ = t0;
        const size_t n = inner_.nextBatch(out);
        decode_ns_ += nowNs() - t0;
        ++calls_;
        return n;
    }

    void
    reset() override
    {
        inner_.reset();
    }

    uint64_t decodeNs() const { return decode_ns_; }
    size_t threadsSeen() const { return threads_; }

  private:
    trace::TraceReader &inner_;
    std::vector<uint64_t> *cycles_;
    uint64_t last_entry_ = 0;
    uint64_t decode_ns_ = 0;
    uint64_t calls_ = 0;
    size_t threads_ = 0;
};

// --- inputs ----------------------------------------------------------------

/** One generated trace of a run. */
struct Input
{
    std::unique_ptr<trace::VectorTrace> trace;
    uint64_t block_accesses = 0;
    /** Slices the serial driver loop cuts the trace into. */
    uint64_t slices = 0;

    double requests() const { return static_cast<double>(trace->size()); }
};

std::vector<trace::Request>
generate(const Workload &w, uint64_t seed, size_t index)
{
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), w.traceConfig(seed, index));
    return trace::drain(gen);
}

uint64_t
traceHash(const std::vector<trace::Request> &reqs)
{
    uint64_t h = reqs.size();
    for (const trace::Request &r : reqs) {
        h = util::mix64(h ^ r.time);
        h = util::mix64(h ^ r.offset_blocks);
        h = util::mix64(h ^ (uint64_t{r.length_blocks} << 32 |
                             r.latency_us));
        h = util::mix64(h ^ (uint64_t{r.volume} << 32 |
                             uint64_t{r.server} << 8 |
                             static_cast<uint64_t>(r.op)));
    }
    return h;
}

Input
makeInput(std::vector<trace::Request> reqs)
{
    Input in;
    for (const trace::Request &r : reqs)
        in.block_accesses += r.length_blocks;
    in.trace = std::make_unique<trace::VectorTrace>(std::move(reqs));
    in.trace->reset();
    sim::pumpBatches(
        *in.trace, kBatch,
        [&](std::span<const trace::Request>) { ++in.slices; },
        [](int) {});
    return in;
}

/** Capacity the per-replay sample buffer needs so the timed loop
 * never grows it. */
size_t
sampleCapacity(const Workload &w, const Input &in)
{
    return w.sharded() ? in.trace->size() / kBatch + 2
                       : static_cast<size_t>(in.slices);
}

// --- one replay ------------------------------------------------------------

/** Storage-call timings summed over a replay's nodes (traced
 * replays only; per-op counts and latencies are in the DailyReport
 * storage_* columns). */
struct StorageFigures
{
    CallTimes reads, writes, trims, flushes;
    bool direct_io = false;

    void
    add(const storage::Backend *b)
    {
        if (b == nullptr)
            return;
        direct_io = direct_io || b->stats().direct_io;
        if (const auto *t = dynamic_cast<const TimingBackend *>(b)) {
            reads.merge(t->reads());
            writes.merge(t->writes());
            trims.merge(t->trims());
            flushes.merge(t->flushes());
        }
    }

    void
    add(const StorageFigures &o)
    {
        reads.merge(o.reads);
        writes.merge(o.writes);
        trims.merge(o.trims);
        flushes.merge(o.flushes);
        direct_io = direct_io || o.direct_io;
    }

    double
    busySeconds() const
    {
        return static_cast<double>(reads.busy_ns + writes.busy_ns +
                                   trims.busy_ns + flushes.busy_ns) *
               1e-9;
    }
};

struct Replay
{
    double wall_s = 0.0;
    ModelDays model;
    core::DailyReport totals;
    std::vector<uint64_t> node_accesses;
    size_t threads_seen = 0;
    // Traced only.
    uint64_t decode_ns = 0;
    double process_batch_s = 0.0;
    double finish_day_s = 0.0;
    double finish_day_max_s = 0.0;
    double finish_trace_s = 0.0;
    uint64_t metastate_bytes = 0;
    uint64_t resident_blocks = 0;
    uint64_t capacity_blocks = 0;
    uint64_t index_bytes = 0;
    StorageFigures storage;

    void
    collectNode(const core::Appliance &app)
    {
        model.push_back(app.daily());
        const core::DailyReport t = app.totals();
        totals.add(t);
        node_accesses.push_back(t.accesses);
        metastate_bytes += app.metastateBytes();
        resident_blocks += app.blockCache().size();
        capacity_blocks += app.blockCache().capacity();
        index_bytes += app.blockCache().memoryBytes();
        storage.add(app.storageBackend());
    }
};

/** Times the driver's calls into one appliance (the core layer). */
struct CoreClock
{
    std::vector<uint64_t> *batch_ns = nullptr; ///< per processBatch
    double finish_day_s = 0.0;
    double finish_day_max_s = 0.0;
    double finish_trace_s = 0.0;

    void
    processBatch(core::Appliance &app,
                 std::span<const trace::Request> slice)
    {
        const uint64_t t0 = nowNs();
        app.processBatch(slice);
        batch_ns->push_back(nowNs() - t0);
    }

    void
    finishDay(core::Appliance &app, int day)
    {
        const auto t0 = Clock::now();
        app.finishDay(day);
        const double s = secondsSince(t0);
        finish_day_s += s;
        finish_day_max_s = std::max(finish_day_max_s, s);
    }

    void
    finishTrace(core::Appliance &app)
    {
        const auto t0 = Clock::now();
        app.finishTrace();
        finish_trace_s += secondsSince(t0);
    }

    void
    fill(Replay &r) const
    {
        for (const uint64_t ns : *batch_ns)
            r.process_batch_s += static_cast<double>(ns) * 1e-9;
        r.finish_day_s = finish_day_s;
        r.finish_day_max_s = finish_day_max_s;
        r.finish_trace_s = finish_trace_s;
    }
};

/**
 * The serial driver loop: the loop sim::runTrace runs, with each
 * processBatch call timed into `batch_ns` (sized by sampleCapacity).
 * Traced, it also times decode, finishDay and finishTrace.
 */
Replay
replaySerial(const Workload &w, trace::VectorTrace &trace,
             const std::string &store, bool traced,
             std::vector<uint64_t> &batch_ns)
{
    auto app = sim::makeAppliance(w.policy(), w.node(store, traced));
    Replay r;
    r.threads_seen = liveThreads();
    trace.reset();
    TimedReader timed(trace, nullptr);
    trace::TraceReader &reader =
        traced ? static_cast<trace::TraceReader &>(timed) : trace;
    CoreClock clock;
    clock.batch_ns = &batch_ns;
    const auto start = Clock::now();
    sim::pumpBatches(
        reader, kBatch,
        [&](std::span<const trace::Request> slice) {
            clock.processBatch(*app, slice);
        },
        [&](int day) {
            if (traced)
                clock.finishDay(*app, day);
            else
                app->finishDay(day);
        });
    if (traced)
        clock.finishTrace(*app);
    else
        app->finishTrace();
    r.wall_s = secondsSince(start);

    app->checkInvariants();
    r.collectNode(*app);
    r.decode_ns = timed.decodeNs();
    clock.fill(r);
    return r;
}

/** sim::runShardedParallel; `cycles` gets the reader's per-decode-batch
 * cycle times (sized by sampleCapacity). */
Replay
replaySharded(const Workload &w, trace::VectorTrace &trace, bool traced,
              std::vector<uint64_t> &cycles)
{
    const sim::ShardedConfig cfg = w.shardedConfig(traced);
    trace.reset();
    TimedReader timed(trace, &cycles);
    const auto start = Clock::now();
    sim::ShardedResult result = sim::runShardedParallel(timed, cfg);
    Replay r;
    r.wall_s = secondsSince(start);

    result.checkInvariants();
    for (const auto &node : result.nodes)
        r.collectNode(*node);
    r.threads_seen = timed.threadsSeen();
    r.decode_ns = timed.decodeNs();
    return r;
}

/**
 * The sharded serial loop (the loop sim::runSharded runs) with the
 * calls into every node timed: the traced run's core-layer figures for
 * the sharded workload, which the parallel driver hides in its
 * workers.
 */
Replay
replayShardedTimedNodes(const Workload &w, trace::VectorTrace &trace,
                        std::vector<uint64_t> &batch_ns)
{
    const sim::ShardedConfig cfg = w.shardedConfig(false);
    auto nodes = sim::makeShardNodes(cfg);
    CoreClock clock;
    clock.batch_ns = &batch_ns;
    auto deliver = [&](size_t shard, std::span<const trace::Request> s) {
        clock.processBatch(*nodes[shard], s);
    };
    sim::RequestBatcher<decltype(deliver)> batcher(cfg.shards, cfg.batch,
                                                   deliver);
    trace.reset();
    const auto start = Clock::now();
    sim::pumpBatches(
        trace, cfg.batch,
        [&](std::span<const trace::Request> slice) {
            for (const trace::Request &req : slice)
                sim::forEachSubrequest(
                    req, cfg.shards, cfg.seed,
                    [&](size_t shard, const trace::Request &sub) {
                        batcher.add(shard, sub);
                    });
        },
        [&](int day) {
            batcher.flushAll();
            for (auto &node : nodes)
                clock.finishDay(*node, day);
        });
    batcher.flushAll();
    for (auto &node : nodes)
        clock.finishTrace(*node);
    Replay r;
    r.wall_s = secondsSince(start);
    for (const auto &node : nodes) {
        node->checkInvariants();
        r.collectNode(*node);
    }
    clock.fill(r);
    return r;
}

/** The library's own driver over the same configuration on the
 * analytic backend: sim::runSharded for a sharded workload,
 * sim::runTrace otherwise. The gate's reference. */
Replay
replayReference(const Workload &w, trace::VectorTrace &trace)
{
    Replay r;
    trace.reset();
    if (w.sharded()) {
        const auto start = Clock::now();
        sim::ShardedResult result =
            sim::runSharded(trace, w.shardedConfig(false));
        r.wall_s = secondsSince(start);
        result.checkInvariants();
        for (const auto &node : result.nodes)
            r.collectNode(*node);
        return r;
    }
    core::ApplianceConfig ac = w.node("", false);
    ac.backend = storage::BackendConfig{};
    ac.backend.kind = storage::BackendKind::Analytic;
    auto app = sim::makeAppliance(w.policy(), ac);
    sim::DriverOptions opts;
    opts.check_invariants = false;
    opts.batch = kBatch;
    const auto start = Clock::now();
    sim::runTrace(trace, *app, opts);
    r.wall_s = secondsSince(start);
    app->checkInvariants();
    r.collectNode(*app);
    return r;
}

// --- command line ----------------------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string store_dir;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "replay_bench: %s\n"
                 "usage: replay_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --store-dir DIR\n"
                 "workloads: %s\n",
                 msg, workloadNames().c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = findWorkload(val);
            if (o.workload == nullptr)
                usage("unknown workload");
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val, &end, 0);
            if (*val == '\0' || *end != '\0' ||
                o.seed > UINT64_MAX / kMaxTraces)
                usage("--seed takes an integer below 2^58");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val, &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = val[0] == '1';
        } else if (arg == "--store-dir") {
            o.store_dir = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload == nullptr)
        usage("--workload is required");
    if (o.trace && o.store_dir.empty())
        usage("--trace 1 needs --store-dir for the file-backend probe");
    return o;
}

// --- result line -----------------------------------------------------------

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < entries_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", entries_[i].name.c_str(),
                        entries_[i].value, entries_[i].unit);
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
asD(uint64_t v)
{
    return static_cast<double>(v);
}

/** Counts every replay adds to the attempted/failed tally. */
struct Tally
{
    uint64_t requests = 0;
    uint64_t device_ops = 0;
    uint64_t device_errors = 0;

    void
    add(const Replay &r, const Input &in)
    {
        const core::DailyReport &t = r.totals;
        requests += in.trace->size();
        device_errors += t.storage_read_errors + t.storage_write_errors;
        device_ops += t.storage_read_ios + t.storage_write_ios +
                      t.storage_read_errors + t.storage_write_errors;
    }
};

/** Storage-layer figures of a set of traced replays, as metrics:
 * call timings from the decorators, per-op figures from the reports'
 * measured columns. */
void
addStorageMetrics(Metrics &m, const std::string &prefix,
                  const StorageFigures &s, const core::DailyReport &t,
                  double replay_wall)
{
    m.add(prefix + "read_calls", asD(s.reads.calls), "count");
    m.add(prefix + "write_calls", asD(s.writes.calls), "count");
    m.add(prefix + "trim_calls", asD(s.trims.calls), "count");
    m.add(prefix + "flush_calls", asD(s.flushes.calls), "count");
    m.add(prefix + "ops_per_read_call",
          ratio(asD(s.reads.ops), asD(s.reads.calls)), "ops/call");
    m.add(prefix + "ops_per_write_call",
          ratio(asD(s.writes.ops), asD(s.writes.calls)), "ops/call");
    m.add(prefix + "read_busy_s", asD(s.reads.busy_ns) * 1e-9, "s");
    m.add(prefix + "write_busy_s", asD(s.writes.busy_ns) * 1e-9, "s");
    m.add(prefix + "trim_busy_s", asD(s.trims.busy_ns) * 1e-9, "s");
    m.add(prefix + "flush_busy_s", asD(s.flushes.busy_ns) * 1e-9, "s");
    m.add(prefix + "read_call_p99_us",
          asD(s.reads.latency.quantileNs(0.99)) * 1e-3, "us");
    m.add(prefix + "write_call_p99_us",
          asD(s.writes.latency.quantileNs(0.99)) * 1e-3, "us");
    m.add(prefix + "read_op_mean_us",
          ratio(asD(t.storage_read_ns), asD(t.storage_read_ios)) * 1e-3,
          "us");
    m.add(prefix + "write_op_mean_us",
          ratio(asD(t.storage_write_ns), asD(t.storage_write_ios)) * 1e-3,
          "us");
    m.add(prefix + "read_errors", asD(t.storage_read_errors), "count");
    m.add(prefix + "write_errors", asD(t.storage_write_errors), "count");
    m.add(prefix + "share_of_replay", ratio(s.busySeconds(), replay_wall),
          "fraction");
}

/** One traced replay of a probe workload (see workloads.hpp). */
struct Probe
{
    Replay replay;
    double requests = 0.0;
};

/**
 * Replays one trace of probe workload `p` traced on the serial loop.
 * A file-backed probe keeps its store in `store_dir` and is checked
 * against sim::runTrace on the analytic backend (backends observe,
 * never decide).
 */
Probe
runProbe(const Workload &p, uint64_t seed, const std::string &store_dir,
         Gate &gate, Tally &tally)
{
    Input in = makeInput(generate(p, seed, 0));
    std::vector<uint64_t> buf;
    buf.reserve(sampleCapacity(p, in));
    Probe out{replaySerial(p, *in.trace, store_dir, true, buf),
              in.requests()};
    const Replay &r = out.replay;
    tally.add(r, in);
    gate.check(r.totals.accesses == in.block_accesses,
               "%s: core.accesses differs from the summed request lengths",
               p.name);
    if (p.file_backend) {
        const Replay analytic = replayReference(p, *in.trace);
        tally.add(analytic, in);
        gate.check(sameModel(r.model, analytic.model),
                   "%s: the FileBackend replay disagrees with the "
                   "analytic backend on the model fields",
                   p.name);
    }
    if (seed == kDefaultSeed) {
        gate.check(ModelTotals::of(r.totals) == p.pinned,
                   "%s: model totals %s differ from the pinned %s", p.name,
                   ModelTotals::of(r.totals).describe().c_str(),
                   p.pinned.describe().c_str());
    }
    return out;
}

int
run(const Options &opt)
{
    const Workload &w = *opt.workload;
    Gate gate;
    Tally tally;

    // Thread budget: never more threads than CPUs.
    const size_t nproc = cpuBudget();
    const size_t planned = std::max(
        w.threads(), opt.trace ? fileProbe().threads() : size_t{0});
    gate.check(planned <= nproc,
               "workload %s starts %zu threads but nproc is %zu", w.name,
               planned, nproc);
    if (gate.failures) {
        Metrics().print(false, gate.checks, gate.failures);
        return 1;
    }

    // --- set-up: generate + materialise the traces, build the nodes ---
    std::vector<double> setup_s, generate_s;
    std::vector<std::vector<trace::Request>> first_set;
    std::vector<uint64_t> hashes;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        for (size_t i = 0; i < w.traces; ++i) {
            std::vector<trace::Request> reqs = generate(w, opt.seed, i);
            const uint64_t h = traceHash(reqs);
            if (rep == 0) {
                hashes.push_back(h);
                first_set.push_back(std::move(reqs));
            } else {
                gate.check(h == hashes[i],
                           "trace %zu regenerated differently", i);
            }
        }
        const double gen_s = secondsSince(t0);
        const auto t1 = Clock::now();
        if (w.sharded())
            (void)sim::makeShardNodes(w.shardedConfig(false));
        else
            (void)sim::makeAppliance(w.policy(), w.node("", false));
        setup_s.push_back(gen_s + secondsSince(t1));
        generate_s.push_back(gen_s);
    }
    std::vector<Input> inputs;
    for (auto &reqs : first_set)
        inputs.push_back(makeInput(std::move(reqs)));

    // --- measured replays ----------------------------------------------
    // Round one replays every trace; untraced runs then keep cycling
    // through them until --seconds of replay time is measured. Traced
    // runs replay each trace once untraced and once traced.
    std::vector<Replay> plain, traced;     // round one, per trace
    double replayed = 0.0;                 // requests, untraced replays
    size_t replays = 0;
    // Per untraced replay: the median and p99 of its batch times. The
    // run reports the median of each over its replays, so one replay
    // caught by a burst of host noise does not set the run's figure.
    std::vector<double> batch_p50, batch_p99;
    size_t batch_samples = 0;
    std::vector<uint64_t> buf;
    double measured_s = 0.0;
    size_t threads_seen = 0;
    auto replay = [&](size_t i, bool tr) {
        const Input &in = inputs[i];
        buf.clear();
        buf.reserve(sampleCapacity(w, in));
        Replay r = w.sharded()
                       ? replaySharded(w, *in.trace, tr, buf)
                       : replaySerial(w, *in.trace, "", tr, buf);
        gate.check(r.totals.accesses == in.block_accesses,
                   "trace %zu: core.accesses %llu != summed request "
                   "lengths %llu",
                   i, static_cast<unsigned long long>(r.totals.accesses),
                   static_cast<unsigned long long>(in.block_accesses));
        threads_seen = std::max(threads_seen, r.threads_seen);
        tally.add(r, in);
        if (!tr) {
            measured_s += r.wall_s;
            replayed += in.requests();
            ++replays;
            batch_p50.push_back(quantile(buf, 0.50));
            batch_p99.push_back(quantile(buf, 0.99));
            batch_samples += buf.size();
        }
        return r;
    };
    for (size_t i = 0; i < inputs.size(); ++i) {
        plain.push_back(replay(i, false));
        if (opt.trace) {
            traced.push_back(replay(i, true));
            gate.check(sameModel(traced.back().model, plain.back().model),
                       "trace %zu: the traced replay changed the model "
                       "fields",
                       i);
        }
    }
    for (size_t n = 0; !opt.trace && measured_s < opt.seconds; ++n) {
        const size_t i = n % inputs.size();
        const Replay again = replay(i, false);
        gate.check(sameModel(again.model, plain[i].model),
                   "trace %zu: a repeated replay changed the model fields",
                   i);
    }
    const double rss_mib = peakRssMiB();

    // --- correctness gate ------------------------------------------------
    core::DailyReport totals;
    for (const Replay &r : plain)
        totals.add(r.totals);
    const Replay reference = replayReference(w, *inputs[0].trace);
    tally.add(reference, inputs[0]);
    gate.check(sameModel(reference.model, plain[0].model),
               "the benchmark's replay disagrees with sim::%s",
               w.sharded() ? "runSharded" : "runTrace");
    if (opt.seed == kDefaultSeed) {
        gate.check(ModelTotals::of(totals) == w.pinned,
                   "model totals %s differ from the pinned %s",
                   ModelTotals::of(totals).describe().c_str(),
                   w.pinned.describe().c_str());
    }
    std::printf("model totals: %s\n",
                ModelTotals::of(totals).describe().c_str());

    Metrics m;
    if (!opt.trace) {
        m.add("replay_rps", replayed / measured_s, "req/s");
        m.add("batch_p50_us", median(batch_p50) * 1e-3, "us");
        m.add("batch_p99_us", median(batch_p99) * 1e-3, "us");
        m.add("setup_s", median(setup_s), "s");
        m.add("peak_rss_mb", rss_mib, "MiB");
        m.add("hit_ratio", totals.hitRatio(), "fraction");
        m.add("alloc_writes_per_access",
              ratio(asD(totals.totalAllocationBlocks()),
                    asD(totals.accesses)),
              "blocks/access");
        std::printf("replays: %zu over %zu traces, batch samples: %zu, "
                    "threads: %zu/%zu\n",
                    replays, inputs.size(), batch_samples,
                    threads_seen, nproc);
    } else {
        // Core-layer timings: the traced replays for a serial workload;
        // for the sharded one, the timed per-node loop.
        std::vector<Replay> node_loops;
        if (w.sharded()) {
            for (size_t i = 0; i < inputs.size(); ++i) {
                std::vector<uint64_t> ns;
                ns.reserve(inputs[i].block_accesses / kBatch +
                           static_cast<size_t>(inputs[i].slices + 2) *
                               w.shards);
                node_loops.push_back(
                    replayShardedTimedNodes(w, *inputs[i].trace, ns));
                tally.add(node_loops.back(), inputs[i]);
                gate.check(sameModel(node_loops.back().model,
                                     plain[i].model),
                           "trace %zu: timed per-node loop disagrees "
                           "with runShardedParallel",
                           i);
            }
        }
        const std::vector<Replay> &core_src =
            w.sharded() ? node_loops : traced;

        double requests = 0.0, plain_wall = 0.0, traced_wall = 0.0;
        uint64_t block_accesses = 0, slices = 0, decode_ns = 0;
        for (size_t i = 0; i < inputs.size(); ++i) {
            requests += inputs[i].requests();
            block_accesses += inputs[i].block_accesses;
            slices += inputs[i].slices;
            plain_wall += plain[i].wall_s;
            traced_wall += traced[i].wall_s;
            decode_ns += traced[i].decode_ns;
        }

        // trace
        m.add("trace.generate_s", median(generate_s), "s");
        m.add("trace.decode_ns_per_req", asD(decode_ns) / requests,
              "ns/req");
        m.add("trace.requests", requests, "count");
        m.add("trace.block_accesses", asD(block_accesses), "count");

        // sim: the split the parallel reader performs, timed alone.
        const size_t split_shards = w.sharded() ? w.shards : 3;
        uint64_t subrequests = 0;
        const auto split_start = Clock::now();
        for (const Input &in : inputs)
            for (const trace::Request &req : in.trace->requests())
                sim::forEachSubrequest(req, split_shards, 0,
                                       [&](size_t, const trace::Request &) {
                                           ++subrequests;
                                       });
        const double split_s = secondsSince(split_start);
        std::vector<uint64_t> node_acc(plain[0].node_accesses.size(), 0);
        for (const Replay &r : plain)
            for (size_t n = 0; n < node_acc.size(); ++n)
                node_acc[n] += r.node_accesses[n];
        const double max_node =
            asD(*std::max_element(node_acc.begin(), node_acc.end()));
        const double mean_node =
            asD(std::accumulate(node_acc.begin(), node_acc.end(),
                                uint64_t{0})) /
            asD(node_acc.size());
        const double speedup = ratio(reference.wall_s, plain[0].wall_s);
        m.add("sim.slices", asD(slices), "count");
        m.add("sim.requests_per_slice", ratio(requests, asD(slices)),
              "req/slice");
        m.add("sim.split_ns_per_req", split_s * 1e9 / requests, "ns/req");
        m.add("sim.subrequests_per_request",
              ratio(asD(subrequests), requests), "ratio");
        m.add("sim.load_imbalance", ratio(max_node, mean_node), "ratio");
        m.add("sim.serial_sharded_s", reference.wall_s, "s");
        m.add("sim.parallel_speedup", speedup, "x");
        m.add("sim.parallel_efficiency", speedup / asD(w.shards),
              "fraction");

        // core
        double pb_s = 0.0, fd_s = 0.0, fd_max = 0.0, ft_s = 0.0;
        for (const Replay &r : core_src) {
            pb_s += r.process_batch_s;
            fd_s += r.finish_day_s;
            fd_max = std::max(fd_max, r.finish_day_max_s);
            ft_s += r.finish_trace_s;
        }
        m.add("core.process_batch_busy_s", pb_s, "s");
        m.add("core.process_batch_ns_per_access",
              pb_s * 1e9 / asD(totals.accesses), "ns/access");
        m.add("core.finish_day_busy_ms", fd_s * 1e3, "ms");
        m.add("core.finish_day_max_ms", fd_max * 1e3, "ms");
        m.add("core.finish_trace_ms", ft_s * 1e3, "ms");
        m.add("core.metastate_mb",
              asD(core_src[0].metastate_bytes) / 1048576.0, "MiB");
        m.add("core.accesses", asD(totals.accesses), "count");
        m.add("core.hits", asD(totals.hits), "count");
        m.add("core.alloc_write_blocks",
              asD(totals.allocation_write_blocks), "count");
        m.add("core.batch_moved_blocks", asD(totals.batch_moved_blocks),
              "count");
        m.add("core.ssd_read_ios", asD(totals.ssd_read_ios), "count");
        m.add("core.ssd_write_ios", asD(totals.ssd_write_ios), "count");
        m.add("core.ssd_alloc_ios", asD(totals.ssd_alloc_ios), "count");
        m.add("core.hits_per_alloc_block",
              ratio(asD(totals.hits), asD(totals.totalAllocationBlocks())),
              "ratio");

        // The adaptive sieve and its ghost caches, from the probe.
        const Probe adaptive =
            runProbe(adaptiveProbe(), opt.seed, "", gate, tally);
        const Replay &ar = adaptive.replay;
        m.add("core.adaptive_ns_per_access",
              ar.process_batch_s * 1e9 / asD(ar.totals.accesses),
              "ns/access");
        m.add("core.adaptive_metastate_mb",
              asD(ar.metastate_bytes) / 1048576.0, "MiB");
        m.add("core.adaptive_hit_ratio", ar.totals.hitRatio(), "fraction");
        m.add("core.tune_t1", asD(ar.totals.tune_t1), "count");
        m.add("core.tune_t2", asD(ar.totals.tune_t2), "count");
        m.add("core.tune_switches", asD(ar.totals.tune_switches), "count");

        // cache: end-of-replay state of the first trace; evictions over
        // all traces (each replay starts with an empty cache, so
        // installs - resident = evictions).
        uint64_t evictions = 0;
        for (const Replay &r : plain)
            evictions +=
                r.totals.totalAllocationBlocks() - r.resident_blocks;
        const Replay &c = plain[0];
        m.add("cache.resident_blocks", asD(c.resident_blocks), "count");
        m.add("cache.capacity_blocks", asD(c.capacity_blocks), "count");
        m.add("cache.evictions", asD(evictions), "count");
        m.add("cache.index_mb", asD(c.index_bytes) / 1048576.0, "MiB");
        m.add("cache.bytes_per_resident_block",
              ratio(asD(c.index_bytes), asD(c.resident_blocks)), "B");

        // storage: the workload's own (analytic) engines, then the
        // FileBackend probe.
        StorageFigures st;
        core::DailyReport traced_totals;
        for (const Replay &r : traced) {
            st.add(r.storage);
            traced_totals.add(r.totals);
        }
        addStorageMetrics(m, "storage.", st, traced_totals, traced_wall);
        std::printf("store: %s (filesystem %s)\n", opt.store_dir.c_str(),
                    filesystemName(opt.store_dir));
        const Probe file =
            runProbe(fileProbe(), opt.seed, opt.store_dir, gate, tally);
        const Replay &fr = file.replay;
        std::printf("store: direct_io=%d%s\n", fr.storage.direct_io,
                    fr.storage.direct_io
                        ? ""
                        : " (O_DIRECT refused: the probe used buffered I/O)");
        addStorageMetrics(m, "storage.file_", fr.storage, fr.totals,
                          fr.wall_s);
        m.add("storage.file_replay_rps", file.requests / fr.wall_s, "req/s");
        m.add("storage.file_direct_io", fr.storage.direct_io ? 1.0 : 0.0,
              "bool");
        threads_seen = std::max(threads_seen, fr.threads_seen);

        // run
        m.add("run.nproc", asD(nproc), "count");
        m.add("run.threads", asD(threads_seen), "count");
        m.add("trace_overhead", ratio(traced_wall, plain_wall), "ratio");
        std::printf("replays: %zu untraced + %zu traced, threads: "
                    "%zu/%zu\n",
                    plain.size(), traced.size(), threads_seen, nproc);
    }
    gate.check(threads_seen <= nproc,
               "%zu threads observed but nproc is %zu", threads_seen,
               nproc);

    const uint64_t attempted =
        tally.requests + tally.device_ops + gate.checks;
    const uint64_t failed = tally.device_errors + gate.failures;
    std::fflush(stdout);
    m.print(failed == 0, attempted, failed);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        return run(opt);
    } catch (const util::FatalError &e) {
        std::fprintf(stderr, "replay_bench: %s\n", e.what());
        return 1;
    }
}
