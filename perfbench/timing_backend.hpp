/**
 * @file
 * Storage-layer timing decorator for the traced benchmark run.
 *
 * TimingBackend wraps the engine storage::makeBackend() would build
 * and times every readBlocks/writeBlocks/trimBlocks/flush call on the
 * steady clock. It forwards the ops unchanged and mirrors the inner
 * engine's per-op outcomes into its own BackendStats, so the
 * appliance's cross-layer audit (model charges == observed ops) holds
 * through it exactly as it holds for the bare engine. Like every
 * backend it observes and never decides: the model-side DailyReport
 * fields are identical with and without it, which the benchmark
 * checks on every traced run.
 *
 * The submit paths allocate nothing (the appliance arms its batch
 * no-alloc regions across storage drains): per-call latencies go to
 * a fixed log-linear histogram rather than a sample vector.
 */

#ifndef SIEVESTORE_PERFBENCH_TIMING_BACKEND_HPP
#define SIEVESTORE_PERFBENCH_TIMING_BACKEND_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "storage/backend.hpp"

namespace perfbench {

/**
 * Log-linear histogram of call durations in nanoseconds: 16 linear
 * sub-buckets per power of two, so a quantile read back from it is
 * within 1/16 of the true value.
 */
class CallHistogram
{
  public:
    void add(uint64_t ns);
    /** Upper edge of the bucket holding quantile q (0 when empty). */
    uint64_t quantileNs(double q) const;
    uint64_t count() const { return count_; }
    void merge(const CallHistogram &other);

  private:
    static constexpr unsigned kSubBits = 4;
    static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
};

/** Per-call timing of one Backend entry point. */
struct CallTimes
{
    uint64_t calls = 0;
    uint64_t ops = 0;
    uint64_t busy_ns = 0;
    CallHistogram latency;

    void record(uint64_t ops_in_call, uint64_t ns);
    void merge(const CallTimes &other);
};

/** Timing decorator (see file comment). */
class TimingBackend final : public sievestore::storage::Backend
{
  public:
    explicit TimingBackend(
        std::unique_ptr<sievestore::storage::Backend> inner);

    const char *name() const override { return "timing"; }

    void readBlocks(std::span<const sievestore::storage::StorageOp> ops,
                    std::span<uint32_t> lat_ns) override;
    void writeBlocks(std::span<const sievestore::storage::StorageOp> ops,
                     std::span<uint32_t> lat_ns) override;
    void trimBlocks(
        std::span<const sievestore::storage::StorageOp> ops) override;
    void flush() override;
    void checkInvariants() const override;

    const sievestore::storage::Backend &inner() const { return *inner_; }
    const CallTimes &reads() const { return reads_; }
    const CallTimes &writes() const { return writes_; }
    const CallTimes &trims() const { return trims_; }
    const CallTimes &flushes() const { return flushes_; }

  private:
    std::unique_ptr<sievestore::storage::Backend> inner_;
    CallTimes reads_;
    CallTimes writes_;
    CallTimes trims_;
    CallTimes flushes_;
};

} // namespace perfbench

#endif // SIEVESTORE_PERFBENCH_TIMING_BACKEND_HPP
