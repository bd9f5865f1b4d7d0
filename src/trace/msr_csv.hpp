/**
 * @file
 * MSR-Cambridge block-trace CSV format.
 *
 * The paper's traces [14, 15] are the MSR Cambridge enterprise traces,
 * distributed as CSV with one record per request:
 *
 *   timestamp,hostname,disk,type,offset,size,duration
 *
 * where timestamp and duration are Windows FILETIME ticks (100 ns),
 * hostname is the server key ("usr", "prxy", ...), disk is the volume
 * index within the server, type is "Read"/"Write", and offset/size are
 * bytes. This reader maps records onto an EnsembleConfig, converts times
 * to microseconds relative to the calendar midnight preceding the first
 * record (the paper analyzes by calendar day, so a 5pm trace start lands
 * inside day 0; openMsrEnsemble takes the first record across all
 * files), and converts byte extents to 512-byte block extents.
 *
 * With the real MSR traces on disk, every experiment in this repository
 * runs on them unmodified; without them, the synthetic generator stands
 * in (see synthetic.hpp).
 */

#ifndef SIEVESTORE_TRACE_MSR_CSV_HPP
#define SIEVESTORE_TRACE_MSR_CSV_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/ensemble.hpp"
#include "trace/merge.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace trace {

/** FILETIME ticks (100 ns) per microsecond. */
constexpr uint64_t kTicksPerUs = 10;
/** FILETIME ticks per day. */
constexpr uint64_t kTicksPerDay = 24ULL * 3600 * 1000 * 1000 * kTicksPerUs;

/**
 * Streaming reader for one MSR-format CSV file.
 *
 * Records whose hostname is not present in the ensemble are skipped with
 * a (once-per-host) warning; malformed lines are fatal. Requests within
 * one MSR file are time-ordered; merging multiple per-server files is
 * done with openMsrEnsemble, which puts them on one time origin.
 */
class MsrCsvReader : public TraceReader
{
  public:
    /**
     * @param path         CSV file path
     * @param ensemble     maps hostnames/disks to volumes
     * @param origin_ticks FILETIME origin subtracted from timestamps; 0
     *                     selects the calendar midnight preceding the
     *                     first record
     */
    MsrCsvReader(const std::string &path, const EnsembleConfig &ensemble,
                 uint64_t origin_ticks = 0);

    bool next(Request &out) override;
    void reset() override;

    /** Origin actually used (after auto-detection). */
    uint64_t originTicks() const { return origin; }

    /** Rewind and time every record from `origin_ticks` instead. */
    void rebase(uint64_t origin_ticks);

    /** Number of records skipped for unknown host / unknown disk. */
    uint64_t skipped() const { return skipped_records; }

  private:
    bool parseLine(const std::string &line, Request &out);

    std::string path;
    const EnsembleConfig &ensemble;
    std::ifstream in;
    uint64_t origin;
    bool origin_fixed;
    uint64_t skipped_records = 0;
    std::unordered_map<std::string, ServerId> host_map;
    std::vector<bool> warned_hosts;
};

/**
 * Open per-volume MSR CSVs as one time-ordered ensemble trace. Every
 * reader gets the same origin: the calendar midnight before the
 * earliest first record across all files, so a volume whose trace
 * starts on a later day keeps its day instead of being shifted onto
 * day 0. Files with no record for the ensemble take the same origin.
 */
std::unique_ptr<MergedTrace>
openMsrEnsemble(const std::vector<std::string> &paths,
                const EnsembleConfig &ensemble);

/**
 * Write requests in MSR CSV format (round-trip of MsrCsvReader). Used by
 * tests and by examples/trace_replay to fabricate a sample file.
 */
class MsrCsvWriter
{
  public:
    /**
     * @param path         output file path
     * @param ensemble     supplies hostnames and per-server disk indices
     * @param origin_ticks FILETIME value corresponding to request time 0
     */
    MsrCsvWriter(const std::string &path, const EnsembleConfig &ensemble,
                 uint64_t origin_ticks);

    /** Append one request. */
    void write(const Request &req);

    /** Flush and close the file. */
    void close();

    uint64_t written() const { return count; }

  private:
    const EnsembleConfig &ensemble;
    std::ofstream out;
    uint64_t origin;
    uint64_t count = 0;
};

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TRACE_MSR_CSV_HPP
