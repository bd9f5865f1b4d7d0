#include "timing_backend.hpp"

#include <bit>
#include <chrono>

#include "util/check.hpp"

namespace perfbench {

using sievestore::storage::kFailedOp;
using sievestore::storage::StorageOp;

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
CallHistogram::add(uint64_t ns)
{
    // Values below 2^kSubBits map one-to-one; above, the bucket is
    // (exponent, top kSubBits mantissa bits below the leading one).
    size_t idx = 0;
    if (ns < (uint64_t{1} << kSubBits)) {
        idx = static_cast<size_t>(ns);
    } else {
        const unsigned msb = static_cast<unsigned>(std::bit_width(ns)) - 1;
        const unsigned shift = msb - kSubBits;
        const uint64_t sub = (ns >> shift) & ((uint64_t{1} << kSubBits) - 1);
        idx = (static_cast<size_t>(shift + 1) << kSubBits) +
              static_cast<size_t>(sub);
    }
    ++buckets_[idx];
    ++count_;
}

uint64_t
CallHistogram::quantileNs(double q) const
{
    if (count_ == 0)
        return 0;
    // Nearest-rank: the smallest bucket whose cumulative count reaches
    // ceil(q * count).
    auto rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_))
        ++rank;
    rank = rank == 0 ? 1 : rank;
    uint64_t seen = 0;
    for (size_t idx = 0; idx < kBuckets; ++idx) {
        seen += buckets_[idx];
        if (seen < rank)
            continue;
        if (idx < (size_t{1} << kSubBits))
            return idx;
        const size_t shift = (idx >> kSubBits) - 1;
        const uint64_t sub = idx & ((size_t{1} << kSubBits) - 1);
        const uint64_t lo = ((uint64_t{1} << kSubBits) | sub) << shift;
        return lo + (uint64_t{1} << shift) - 1;
    }
    return 0;
}

void
CallHistogram::merge(const CallHistogram &other)
{
    for (size_t idx = 0; idx < kBuckets; ++idx)
        buckets_[idx] += other.buckets_[idx];
    count_ += other.count_;
}

void
CallTimes::record(uint64_t ops_in_call, uint64_t ns)
{
    ++calls;
    ops += ops_in_call;
    busy_ns += ns;
    latency.add(ns);
}

void
CallTimes::merge(const CallTimes &other)
{
    calls += other.calls;
    ops += other.ops;
    busy_ns += other.busy_ns;
    latency.merge(other.latency);
}

TimingBackend::TimingBackend(
    std::unique_ptr<sievestore::storage::Backend> inner)
    : inner_(std::move(inner))
{
    SIEVE_CHECK(inner_ != nullptr, "TimingBackend needs an engine");
    stats_.direct_io = inner_->stats().direct_io;
    stats_.io_uring = inner_->stats().io_uring;
}

void
TimingBackend::readBlocks(std::span<const StorageOp> ops,
                          std::span<uint32_t> lat_ns)
{
    const uint64_t t0 = nowNs();
    inner_->readBlocks(ops, lat_ns);
    reads_.record(ops.size(), nowNs() - t0);
    for (size_t i = 0; i < ops.size(); ++i) {
        if (lat_ns[i] == kFailedOp)
            noteReadError();
        else
            noteRead(lat_ns[i]);
    }
}

void
TimingBackend::writeBlocks(std::span<const StorageOp> ops,
                           std::span<uint32_t> lat_ns)
{
    const uint64_t t0 = nowNs();
    inner_->writeBlocks(ops, lat_ns);
    writes_.record(ops.size(), nowNs() - t0);
    for (size_t i = 0; i < ops.size(); ++i) {
        if (lat_ns[i] == kFailedOp)
            noteWriteError();
        else
            noteWrite(lat_ns[i]);
    }
}

void
TimingBackend::trimBlocks(std::span<const StorageOp> ops)
{
    const uint64_t t0 = nowNs();
    inner_->trimBlocks(ops);
    trims_.record(ops.size(), nowNs() - t0);
    Backend::trimBlocks(ops);
}

void
TimingBackend::flush()
{
    const uint64_t t0 = nowNs();
    inner_->flush();
    flushes_.record(0, nowNs() - t0);
}

void
TimingBackend::checkInvariants() const
{
    Backend::checkInvariants();
    inner_->checkInvariants();
    const auto &mine = stats();
    const auto &theirs = inner_->stats();
    SIEVE_CHECK(mine.read_ops == theirs.read_ops &&
                    mine.write_ops == theirs.write_ops &&
                    mine.read_errors == theirs.read_errors &&
                    mine.write_errors == theirs.write_errors &&
                    mine.trim_ops == theirs.trim_ops,
                "timing decorator counters diverged from its engine");
}

} // namespace perfbench
