#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/file_backend.hpp"
#include "timing_backend.hpp"
#include "util/logging.hpp"

namespace perfbench {

using namespace sievestore;

namespace {

constexpr uint64_t kCacheBytes = 16ULL << 30; // the paper's 16 GB cache

// Each run replays `traces` traces at 1/scale_denominator of the
// paper's volume; one pass over them takes about ten seconds here.
// Per-core L2 is 2 MiB on the reference host, and every sieve state
// below outgrows it: ~2.9 MB for sievec-serial, ~3.9 MB per shard for
// sievec-sharded, ~35 MB for the adaptive probe (five shadow sieves
// and their ghost caches).
const Workload kWorkloads[] = {
    {"sievec-serial", 4096.0, 10, sim::PolicyKind::SieveStoreC, 1, false,
     0, {69669800, 20458471, 99112, 0, 2027603, 694094, 59056}},
    {"aod", 4096.0, 8, sim::PolicyKind::AOD, 1, false, 0,
     {55891144, 12653663, 43236516, 0, 1255177, 406757, 5515401}},
    {"sievec-sharded", 1024.0, 4, sim::PolicyKind::SieveStoreC, 3, false,
     0, {112210128, 32914186, 157867, 0, 3310850, 1066421, 94902}},
};

const Workload kAdaptiveProbe = {
    "adaptive-probe", 8192.0, 1, sim::PolicyKind::Adaptive, 1, false, 0,
    {3320328, 830764, 180997, 0, 85539, 31042, 50635}};

const Workload kFileProbe = {
    "file-probe", 16384.0, 1, sim::PolicyKind::AOD, 1, true, 2,
    {1771584, 410725, 1360851, 0, 33617, 20254, 173491}};

/**
 * FileBackend factory: each call creates its own store file under
 * `dir` and unlinks it as soon as the backend holds it open, so the
 * store disappears when the backend closes it — even when the process
 * dies mid-run.
 */
std::unique_ptr<storage::Backend>
makeFileStore(const std::string &dir, uint64_t capacity_bytes,
              unsigned workers)
{
    static std::atomic<unsigned> serial{0};
    storage::FileBackendConfig fc;
    fc.path = dir + "/store-" + std::to_string(::getpid()) + "-" +
              std::to_string(serial.fetch_add(1));
    fc.capacity_bytes = capacity_bytes;
    fc.workers = workers;
    fc.engine = storage::FileBackendConfig::Engine::Sync;
    auto backend = std::make_unique<storage::FileBackend>(fc);
    if (::unlink(fc.path.c_str()) != 0)
        util::fatal("unlink(%s) failed: %s", fc.path.c_str(),
                    std::strerror(errno));
    return backend;
}

} // namespace

ModelTotals
ModelTotals::of(const core::DailyReport &r)
{
    return {r.accesses,           r.hits,          r.allocation_write_blocks,
            r.batch_moved_blocks, r.ssd_read_ios,  r.ssd_write_ios,
            r.ssd_alloc_ios};
}

std::string
ModelTotals::describe() const
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{%llu, %llu, %llu, %llu, %llu, %llu, %llu}",
                  static_cast<unsigned long long>(accesses),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(allocation_write_blocks),
                  static_cast<unsigned long long>(batch_moved_blocks),
                  static_cast<unsigned long long>(ssd_read_ios),
                  static_cast<unsigned long long>(ssd_write_ios),
                  static_cast<unsigned long long>(ssd_alloc_ios));
    return buf;
}

size_t
Workload::threads() const
{
    // Sharded: one worker per shard plus the reader (the caller).
    // Serial: the caller plus the file engine's I/O workers.
    if (sharded())
        return shards + 1;
    return 1 + (file_backend ? storage_workers : 0);
}

trace::SyntheticConfig
Workload::traceConfig(uint64_t seed, size_t index) const
{
    trace::SyntheticConfig cfg;
    cfg.scale = 1.0 / scale_denominator;
    // One trace: the run's seed itself. Several: disjoint sub-seeds.
    cfg.seed = traces == 1 ? seed : seed * kMaxTraces + index;
    return cfg;
}

sim::PolicyConfig
Workload::policy() const
{
    // Sizing follows the figure harnesses (bench/bench_common.cpp):
    // ~450 M IMCT slots at full scale, split evenly across shards;
    // adaptive shadow IMCTs an order smaller than production.
    const auto slots = std::max<size_t>(
        4096, static_cast<size_t>(4.5e8 / scale_denominator));
    sim::PolicyConfig pc;
    pc.kind = kind;
    pc.sieve_c.imct_slots = std::max<size_t>(1024, slots / shards);
    pc.adaptive.imct_slots = std::max<size_t>(4096, slots / 8);
    return pc;
}

core::ApplianceConfig
Workload::node(const std::string &store_dir, bool timed) const
{
    core::ApplianceConfig ac;
    const auto blocks = static_cast<uint64_t>(
        static_cast<double>(kCacheBytes) / scale_denominator /
        static_cast<double>(trace::kBlockBytes));
    ac.cache_blocks = std::max<uint64_t>(64, blocks / shards);
    ac.ssd = ssd::SsdModel::intelX25E(kCacheBytes)
                 .scaled(1.0 / scale_denominator);
    ac.track_occupancy = false;
    ac.backend.kind = file_backend ? storage::BackendKind::File
                                   : storage::BackendKind::Analytic;
    if (file_backend) {
        const uint64_t bytes = ac.cache_blocks * trace::kBlockBytes;
        const unsigned workers = storage_workers;
        ac.backend.factory = [store_dir, bytes, workers]() {
            return makeFileStore(store_dir, bytes, workers);
        };
    }
    if (timed) {
        const storage::BackendConfig plain = ac.backend;
        const ssd::SsdModel ssd = ac.ssd;
        const uint64_t cache_blocks = ac.cache_blocks;
        ac.backend.factory = [plain, ssd, cache_blocks]() {
            return std::unique_ptr<storage::Backend>(new TimingBackend(
                storage::makeBackend(plain, ssd, cache_blocks)));
        };
    }
    return ac;
}

sim::ShardedConfig
Workload::shardedConfig(bool timed) const
{
    sim::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy = policy();
    cfg.node = node("", timed);
    cfg.parallel.threads = shards;
    cfg.parallel.deterministic = true;
    return cfg;
}

const Workload &
fileProbe()
{
    return kFileProbe;
}

const Workload &
adaptiveProbe()
{
    return kAdaptiveProbe;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const Workload &w : kWorkloads) {
        if (!names.empty())
            names += ", ";
        names += w.name;
    }
    return names;
}

} // namespace perfbench
