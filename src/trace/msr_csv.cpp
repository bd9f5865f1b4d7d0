#include "trace/msr_csv.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace sievestore {
namespace trace {

MsrCsvReader::MsrCsvReader(const std::string &path_,
                           const EnsembleConfig &ensemble_,
                           uint64_t origin_ticks)
    : path(path_), ensemble(ensemble_), in(path_), origin(origin_ticks),
      origin_fixed(origin_ticks != 0)
{
    if (!in)
        util::fatal("cannot open MSR trace file '%s'", path.c_str());
    for (const auto &srv : ensemble.servers())
        host_map[util::toLower(srv.key)] = srv.id;
    warned_hosts.assign(ensemble.serverCount() + 1, false);
}

bool
MsrCsvReader::parseLine(const std::string &line, Request &out)
{
    const auto fields = util::splitView(line, ',');
    if (fields.size() != 7)
        util::fatal("%s: expected 7 CSV fields, got %zu in line '%s'",
                    path.c_str(), fields.size(), line.c_str());

    uint64_t ticks = 0, offset = 0, size = 0, duration = 0;
    if (!util::parseU64(fields[0], ticks))
        util::fatal("%s: bad timestamp '%s'", path.c_str(),
                    std::string(fields[0]).c_str());
    const std::string host = util::toLower(util::trimView(fields[1]));
    uint64_t disk = 0;
    if (!util::parseU64(fields[2], disk))
        util::fatal("%s: bad disk index '%s'", path.c_str(),
                    std::string(fields[2]).c_str());
    const std::string type = util::toLower(util::trimView(fields[3]));
    if (!util::parseU64(fields[4], offset) ||
        !util::parseU64(fields[5], size) ||
        !util::parseU64(fields[6], duration)) {
        util::fatal("%s: bad offset/size/duration in line '%s'",
                    path.c_str(), line.c_str());
    }
    const bool is_write = type == "write" || type == "w";
    if (!is_write && type != "read" && type != "r")
        util::fatal("%s: unknown op type '%s' in line '%s'", path.c_str(),
                    type.c_str(), line.c_str());
    // A request that touches any byte of a block accesses the block.
    uint64_t end_byte = 0;
    if (__builtin_add_overflow(offset, size == 0 ? 1 : size, &end_byte))
        util::fatal("%s: offset + size overflows in line '%s'",
                    path.c_str(), line.c_str());
    const uint64_t offset_blocks = offset / kBlockBytes;
    const uint64_t end_block =
        end_byte / kBlockBytes + (end_byte % kBlockBytes != 0 ? 1 : 0);
    if (end_block - offset_blocks > UINT32_MAX)
        util::fatal("%s: extent of %llu blocks exceeds 2^32-1 in line '%s'",
                    path.c_str(),
                    static_cast<unsigned long long>(end_block -
                                                    offset_blocks),
                    line.c_str());

    const auto it = host_map.find(host);
    if (it == host_map.end()) {
        if (!warned_hosts.back()) {
            util::warn("%s: skipping records for unknown host '%s'",
                       path.c_str(), host.c_str());
            warned_hosts.back() = true;
        }
        ++skipped_records;
        return false;
    }
    const ServerInfo &srv = ensemble.server(it->second);
    if (disk >= srv.volume_ids.size()) {
        if (!warned_hosts[srv.id]) {
            util::warn("%s: host '%s' disk %llu outside ensemble config; "
                       "skipping", path.c_str(), host.c_str(),
                       static_cast<unsigned long long>(disk));
            warned_hosts[srv.id] = true;
        }
        ++skipped_records;
        return false;
    }

    if (!origin_fixed) {
        // Calendar midnight preceding the first record, so calendar-day
        // analysis matches the paper's partitioning.
        origin = (ticks / kTicksPerDay) * kTicksPerDay;
        origin_fixed = true;
    }
    if (ticks < origin)
        util::fatal("%s: timestamp before trace origin", path.c_str());

    out.time = (ticks - origin) / kTicksPerUs;
    out.volume = srv.volume_ids[disk];
    out.server = srv.id;
    out.op = is_write ? Op::Write : Op::Read;
    out.offset_blocks = offset_blocks;
    out.length_blocks = static_cast<uint32_t>(end_block - offset_blocks);
    out.latency_us = static_cast<uint32_t>(duration / kTicksPerUs);
    return true;
}

bool
MsrCsvReader::next(Request &out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (parseLine(line, out))
            return true;
    }
    return false;
}

void
MsrCsvReader::reset()
{
    in.clear();
    in.seekg(0);
    if (!in)
        util::fatal("cannot rewind MSR trace file '%s'", path.c_str());
    skipped_records = 0;
}

void
MsrCsvReader::rebase(uint64_t origin_ticks)
{
    reset();
    origin = origin_ticks;
    origin_fixed = true;
}

std::unique_ptr<MergedTrace>
openMsrEnsemble(const std::vector<std::string> &paths,
                const EnsembleConfig &ensemble)
{
    // Each reader detects its own midnight from its first record; the
    // earliest of them is the ensemble's.
    std::vector<std::unique_ptr<MsrCsvReader>> readers;
    uint64_t origin = UINT64_MAX;
    for (const std::string &path : paths) {
        readers.push_back(std::make_unique<MsrCsvReader>(path, ensemble));
        Request first;
        if (readers.back()->next(first))
            origin = std::min(origin, readers.back()->originTicks());
    }
    std::vector<std::unique_ptr<TraceReader>> sources;
    for (auto &reader : readers) {
        reader->rebase(origin == UINT64_MAX ? 0 : origin);
        sources.push_back(std::move(reader));
    }
    return std::make_unique<MergedTrace>(std::move(sources));
}

MsrCsvWriter::MsrCsvWriter(const std::string &path,
                           const EnsembleConfig &ensemble_,
                           uint64_t origin_ticks)
    : ensemble(ensemble_), out(path), origin(origin_ticks)
{
    if (!out)
        util::fatal("cannot create MSR trace file '%s'", path.c_str());
}

void
MsrCsvWriter::write(const Request &req)
{
    const ServerInfo &srv = ensemble.server(req.server);
    const VolumeInfo &vol = ensemble.volume(req.volume);
    const uint64_t ticks = origin + req.time * kTicksPerUs;
    out << ticks << ',' << util::toLower(srv.key) << ','
        << vol.index_in_server << ','
        << (req.op == Op::Write ? "Write" : "Read") << ','
        << req.offset_blocks * kBlockBytes << ',' << req.bytes() << ','
        << uint64_t(req.latency_us) * kTicksPerUs << '\n';
    ++count;
}

void
MsrCsvWriter::close()
{
    out.close();
}

} // namespace trace
} // namespace sievestore
