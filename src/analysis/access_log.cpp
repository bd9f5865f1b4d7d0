#include "analysis/access_log.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/alloc_guard.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace analysis {

namespace fs = std::filesystem;
using trace::BlockId;

namespace {

/** Initial capacity of a partition's in-memory append buffer. */
constexpr size_t kMinBuffer = 64;

/** Append raw 8-byte block ids to a file. */
void
appendRaw(const std::string &path, const std::vector<BlockId> &ids)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        util::fatal("access log: cannot append to '%s'", path.c_str());
    out.write(reinterpret_cast<const char *>(ids.data()),
              static_cast<std::streamsize>(ids.size() * sizeof(BlockId)));
    if (!out)
        util::fatal("access log: short write to '%s'", path.c_str());
}

/** Read an entire raw file of 8-byte block ids. */
std::vector<BlockId>
readRaw(const std::string &path)
{
    std::vector<BlockId> ids;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return ids;
    const auto bytes = static_cast<uint64_t>(in.tellg());
    ids.resize(bytes / sizeof(BlockId));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(ids.data()),
            static_cast<std::streamsize>(ids.size() * sizeof(BlockId)));
    if (!in)
        util::fatal("access log: short read from '%s'", path.c_str());
    return ids;
}

/** Read a sorted run file of (block, count) records. */
std::vector<BlockCount>
readRun(const std::string &path)
{
    std::vector<BlockCount> run;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return run;
    const auto bytes = static_cast<uint64_t>(in.tellg());
    const size_t records = bytes / (2 * sizeof(uint64_t));
    run.reserve(records);
    in.seekg(0);
    for (size_t i = 0; i < records; ++i) {
        uint64_t block = 0, count = 0;
        in.read(reinterpret_cast<char *>(&block), sizeof(block));
        in.read(reinterpret_cast<char *>(&count), sizeof(count));
        run.push_back(BlockCount{block, count});
    }
    if (!in)
        util::fatal("access log: short read from '%s'", path.c_str());
    return run;
}

/** Write a sorted run file of (block, count) records. */
void
writeRun(const std::string &path, const std::vector<BlockCount> &run)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        util::fatal("access log: cannot write '%s'", path.c_str());
    for (const auto &bc : run) {
        out.write(reinterpret_cast<const char *>(&bc.block),
                  sizeof(bc.block));
        out.write(reinterpret_cast<const char *>(&bc.count),
                  sizeof(bc.count));
    }
    if (!out)
        util::fatal("access log: short write to '%s'", path.c_str());
}

/**
 * Count contiguous runs of equal addresses in a sorted raw vector (the
 * paper's step (3)) and merge with an existing sorted run.
 */
std::vector<BlockCount>
mergeRuns(const std::vector<BlockCount> &a, const std::vector<BlockCount> &b)
{
    std::vector<BlockCount> out;
    out.reserve(a.size() + b.size());
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j >= b.size() || (i < a.size() && a[i].block < b[j].block)) {
            out.push_back(a[i++]);
        } else if (i >= a.size() || b[j].block < a[i].block) {
            out.push_back(b[j++]);
        } else {
            out.push_back(BlockCount{a[i].block,
                                     a[i].count + b[j].count});
            ++i;
            ++j;
        }
    }
    return out;
}

std::vector<BlockCount>
runLengthCount(std::vector<BlockId> &raw)
{
    std::sort(raw.begin(), raw.end());
    std::vector<BlockCount> out;
    size_t i = 0;
    while (i < raw.size()) {
        size_t j = i;
        while (j < raw.size() && raw[j] == raw[i])
            ++j;
        out.push_back(BlockCount{raw[i], j - i});
        i = j;
    }
    return out;
}

} // namespace

AccessLog::AccessLog(const std::string &directory, AccessLogConfig cfg)
    : dir(directory), config(cfg)
{
    if (config.partitions == 0)
        util::fatal("access log requires at least one partition");
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        util::fatal("access log: cannot create directory '%s': %s",
                    dir.c_str(), ec.message().c_str());
    parts.resize(config.partitions);
    for (size_t i = 0; i < parts.size(); ++i) {
        parts[i].raw_path = dir + "/part" + std::to_string(i) + ".raw";
        parts[i].run_path = dir + "/part" + std::to_string(i) + ".run";
    }
    beginEpoch();
}

AccessLog::~AccessLog()
{
    std::error_code ec;
    for (auto &p : parts) {
        fs::remove(p.raw_path, ec);
        fs::remove(p.run_path, ec);
    }
}

size_t
AccessLog::partitionOf(BlockId block) const
{
    return static_cast<size_t>(
        util::reduceRange(util::mix64(block), parts.size()));
}

// log() runs inside the appliance's batch no-alloc region (SieveStore-D
// counts from AllocationPolicy::onMiss / onHit). Its three allocating
// points — amortized buffer growth, the spill to the raw file and the
// incremental compaction — disarm the guard; a plain append into
// buffered capacity stays allocation-free.
void
AccessLog::log(BlockId block)
{
    Partition &p = parts[partitionOf(block)];
    if (p.buffer.size() == p.buffer.capacity()) {
        util::AllocGuardDisarm growth; // amortized buffer growth
        p.buffer.reserve(
            std::max<size_t>(kMinBuffer, p.buffer.capacity() * 2));
    }
    p.buffer.push_back(block);
    ++logged_count;
    if (p.buffer.size() >= config.flush_threshold) {
        util::AllocGuardDisarm spill; // file I/O and compaction
        flushBuffer(p);
        if (p.raw_bytes >= config.compact_threshold_bytes)
            compactPartition(p);
    }
}

void
AccessLog::flushBuffer(Partition &p)
{
    if (p.buffer.empty())
        return;
    appendRaw(p.raw_path, p.buffer);
    p.raw_bytes += p.buffer.size() * sizeof(BlockId);
    p.buffer.clear();
}

void
AccessLog::compactPartition(Partition &p)
{
    flushBuffer(p);
    std::vector<BlockId> raw = readRaw(p.raw_path);
    if (raw.empty() && !p.has_run)
        return;
    std::vector<BlockCount> fresh = runLengthCount(raw);
    raw.clear();
    raw.shrink_to_fit();
    std::vector<BlockCount> merged =
        p.has_run ? mergeRuns(readRun(p.run_path), fresh) : std::move(fresh);
    writeRun(p.run_path, merged);
    p.has_run = true;
    std::error_code ec;
    fs::remove(p.raw_path, ec);
    p.raw_bytes = 0;
}

void
AccessLog::compactIfNeeded()
{
    for (auto &p : parts) {
        if (p.raw_bytes + p.buffer.size() * sizeof(BlockId) >=
            config.compact_threshold_bytes) {
            compactPartition(p);
        }
    }
}

void
AccessLog::compactAll()
{
    for (auto &p : parts)
        compactPartition(p);
}

std::vector<BlockCount>
AccessLog::partitionCounts(Partition &p)
{
    compactPartition(p);
    return p.has_run ? readRun(p.run_path) : std::vector<BlockCount>{};
}

std::vector<BlockCount>
AccessLog::reduce(uint64_t threshold)
{
    std::vector<BlockCount> selected;
    for (auto &p : parts) {
        for (const auto &bc : partitionCounts(p))
            if (bc.count >= threshold)
                selected.push_back(bc);
    }
    std::sort(selected.begin(), selected.end(),
              [](const BlockCount &a, const BlockCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.block < b.block;
              });
    return selected;
}

void
AccessLog::beginEpoch()
{
    std::error_code ec;
    for (auto &p : parts) {
        p.buffer.clear();
        p.raw_bytes = 0;
        p.has_run = false;
        fs::remove(p.raw_path, ec);
        fs::remove(p.run_path, ec);
    }
    logged_count = 0;
}

uint64_t
AccessLog::diskBytes() const
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &p : parts) {
        const auto raw = fs::file_size(p.raw_path, ec);
        if (!ec)
            total += raw;
        const auto run = fs::file_size(p.run_path, ec);
        if (!ec)
            total += run;
        ec.clear();
    }
    return total;
}

} // namespace analysis
} // namespace sievestore
