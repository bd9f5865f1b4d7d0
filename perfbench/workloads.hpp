/**
 * @file
 * The benchmark's workloads: which policy, driver, backend and input
 * size each one replays, and the model totals pinned for the default
 * seed. Every workload replays the synthetic 13-server paper ensemble;
 * the reasons each one is in the benchmark are in README.md.
 */

#ifndef SIEVESTORE_PERFBENCH_WORKLOADS_HPP
#define SIEVESTORE_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "core/appliance.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

/** Generator seed run.py passes when none is given; the pinned model
 * totals below are for this seed. */
inline constexpr uint64_t kDefaultSeed = 1;

/** Most traces one workload replays per run (bounds the sub-seeds). */
inline constexpr size_t kMaxTraces = 64;

/** Model-side whole-trace totals (exact, backend-independent). */
struct ModelTotals
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t allocation_write_blocks = 0;
    uint64_t batch_moved_blocks = 0;
    uint64_t ssd_read_ios = 0;
    uint64_t ssd_write_ios = 0;
    uint64_t ssd_alloc_ios = 0;

    static ModelTotals of(const sievestore::core::DailyReport &r);
    bool operator==(const ModelTotals &) const = default;
    std::string describe() const;
};

struct Workload
{
    const char *name;
    /** Trace volume = paper volume / scale_denominator. */
    double scale_denominator;
    /**
     * Independent traces a run replays, generated from sub-seeds of
     * the run's seed. The synthetic ensemble's per-server, per-day
     * draws make one trace's figures swing with its seed; a run
     * spreads its replay volume over several traces so its figures
     * average over them.
     */
    size_t traces;
    sievestore::sim::PolicyKind kind;
    /** 1 = one appliance on the serial driver loop; > 1 = that many
     * nodes on sim::runShardedParallel, one worker thread each. */
    size_t shards;
    /** Real O_DIRECT FileBackend instead of the analytic echo. */
    bool file_backend;
    /** FileBackend I/O worker threads (file_backend only). */
    unsigned storage_workers;
    /** Model totals at kDefaultSeed. */
    ModelTotals pinned;

    bool sharded() const { return shards > 1; }
    /** Threads the workload runs at once, the caller included. */
    size_t threads() const;

    /** Generator configuration of trace `index` (< traces) of a run
     * with seed `seed`. */
    sievestore::trace::SyntheticConfig traceConfig(uint64_t seed,
                                                   size_t index) const;
    sievestore::sim::PolicyConfig policy() const;
    /**
     * Per-node appliance configuration. `store_dir` is where a file
     * backend creates its store; `timed` wraps each node's engine in
     * a TimingBackend (traced runs only).
     */
    sievestore::core::ApplianceConfig node(const std::string &store_dir,
                                           bool timed) const;
    /** Sharded deployment of per-node configurations (analytic
     * backend; `timed` as for node()). */
    sievestore::sim::ShardedConfig shardedConfig(bool timed) const;
};

/**
 * The storage-engine probe every traced run adds: allocate-on-demand
 * (80 % of accesses allocate) on the real O_DIRECT FileBackend, at a
 * volume the disk replays in a few seconds. Not a workload of its own:
 * on a disk-backed checkout its figures are bound by the device and
 * too few requests fit a run to hold steady across seeds.
 */
const Workload &fileProbe();

/**
 * The adaptive-sieve probe every traced run adds: PolicyKind::Adaptive,
 * which tunes (t1, t2) online with five shadow sieves and
 * cache::GhostCache. Not a workload of its own: it replays ~13x slower
 * per request than SieveStore-C, and its tuning decisions, and with
 * them its allocation-writes, swing with the seed by more than any
 * usable bound at the volume a run can replay.
 */
const Workload &adaptiveProbe();

/** Null when `name` is not a workload. */
const Workload *findWorkload(std::string_view name);

/** Comma-separated workload names (for usage messages). */
std::string workloadNames();

} // namespace perfbench

#endif // SIEVESTORE_PERFBENCH_WORKLOADS_HPP
