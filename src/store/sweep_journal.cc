#include "store/sweep_journal.hh"

#include <cstdint>
#include <optional>
#include <sstream>

#include "common/fnv.hh"
#include "common/json.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

constexpr std::uint32_t journalVersion = 1;

/**
 * 64-bit counters travel as decimal strings: JSON numbers are doubles
 * in this codebase's parser and would silently round past 2^53,
 * breaking the byte-identical-resume guarantee.
 */
void
writeU64Field(std::ostream &out, const char *key, std::uint64_t value)
{
    out << ",\"" << key << "\":\"" << value << "\"";
}

void
writeNumberField(std::ostream &out, const char *key, double value)
{
    out << ",\"" << key << "\":";
    writeJsonNumber(out, value);
}

std::string
serializeHeader(const JournalIdentity &identity)
{
    std::ostringstream out;
    out << "{\"kind\":\"header\",\"version\":" << journalVersion;
    writeU64Field(out, "matrix_hash", identity.matrixHash);
    writeU64Field(out, "matrix_epoch", identity.matrixEpoch);
    writeU64Field(out, "config_hash", identity.configHash);
    out << "}";
    return out.str();
}

std::string
serializeCell(const StudyRow &row)
{
    std::ostringstream out;
    out << "{\"kind\":\"cell\",\"workload\":";
    writeJsonString(out, row.workload);
    out << ",\"format\":";
    writeJsonString(out, formatName(row.format));
    out << ",\"p\":" << row.partitionSize;
    writeNumberField(out, "sigma", row.meanSigma);
    writeU64Field(out, "total_cycles", row.totalCycles);
    writeNumberField(out, "seconds", row.seconds);
    writeU64Field(out, "memory_cycles", row.memoryCycles);
    writeU64Field(out, "compute_cycles", row.computeCycles);
    writeNumberField(out, "balance", row.balanceRatio);
    writeNumberField(out, "throughput", row.throughput);
    writeNumberField(out, "bw_util", row.bandwidthUtilization);
    writeU64Field(out, "bytes", row.totalBytes);
    writeU64Field(out, "partitions", row.partitions);
    writeNumberField(out, "bram18k", row.resources.bram18k);
    writeNumberField(out, "ff_k", row.resources.ffK);
    writeNumberField(out, "lut_k", row.resources.lutK);
    out << ",\"calibrated\":"
        << (row.resources.calibrated ? "true" : "false");
    writeNumberField(out, "logic_w", row.power.logicW);
    writeNumberField(out, "bram_w", row.power.bramW);
    writeNumberField(out, "signals_w", row.power.signalsW);
    writeNumberField(out, "static_w", row.power.staticW);
    out << "}";
    return out.str();
}

bool
readU64(const JsonValue &obj, const char *key, std::uint64_t &value)
{
    const JsonValue *member = obj.find(key);
    if (member == nullptr || !member->isString())
        return false;
    try {
        std::size_t pos = 0;
        value = std::stoull(member->text, &pos);
        return pos == member->text.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
readNumber(const JsonValue &obj, const char *key, double &value)
{
    const JsonValue *member = obj.find(key);
    if (member == nullptr || !member->isNumber())
        return false;
    value = member->number;
    return true;
}

/** Parse one cell line; nullopt for anything torn or foreign. */
std::optional<StudyRow>
parseCell(const JsonValue &obj)
{
    StudyRow row;
    const JsonValue *workload = obj.find("workload");
    const JsonValue *format = obj.find("format");
    const JsonValue *p = obj.find("p");
    if (workload == nullptr || !workload->isString() ||
        format == nullptr || !format->isString() || p == nullptr ||
        !p->isNumber()) {
        return std::nullopt;
    }
    row.workload = workload->text;
    try {
        row.format = parseFormatKind(format->text);
    } catch (const FatalError &) {
        return std::nullopt;
    }
    row.partitionSize = static_cast<Index>(p->number);

    std::uint64_t partitions = 0;
    const bool ok =
        readNumber(obj, "sigma", row.meanSigma) &&
        readU64(obj, "total_cycles", row.totalCycles) &&
        readNumber(obj, "seconds", row.seconds) &&
        readU64(obj, "memory_cycles", row.memoryCycles) &&
        readU64(obj, "compute_cycles", row.computeCycles) &&
        readNumber(obj, "balance", row.balanceRatio) &&
        readNumber(obj, "throughput", row.throughput) &&
        readNumber(obj, "bw_util", row.bandwidthUtilization) &&
        readU64(obj, "bytes", row.totalBytes) &&
        readU64(obj, "partitions", partitions) &&
        readNumber(obj, "bram18k", row.resources.bram18k) &&
        readNumber(obj, "ff_k", row.resources.ffK) &&
        readNumber(obj, "lut_k", row.resources.lutK) &&
        readNumber(obj, "logic_w", row.power.logicW) &&
        readNumber(obj, "bram_w", row.power.bramW) &&
        readNumber(obj, "signals_w", row.power.signalsW) &&
        readNumber(obj, "static_w", row.power.staticW);
    if (!ok)
        return std::nullopt;
    row.partitions = static_cast<std::size_t>(partitions);
    row.resources.calibrated = obj.boolOr("calibrated", false);
    return row;
}

} // namespace

std::uint64_t
sweepConfigHash(const StudyConfig &config)
{
    std::uint64_t hash = fnvOffsetBasis;
    hash = fnv1aValue<std::uint64_t>(config.partitionSizes.size(), hash);
    for (Index p : config.partitionSizes)
        hash = fnv1aValue(p, hash);
    hash = fnv1aValue<std::uint64_t>(config.formats.size(), hash);
    for (FormatKind kind : config.formats)
        hash = fnv1aValue(static_cast<std::uint32_t>(kind), hash);

    const FormatParams &params = config.formatParams;
    for (Index value : {params.bcsrBlock, params.ellMinWidth,
                        params.sellSlice, params.ellCooWidth,
                        params.sellCsWindow})
        hash = fnv1aValue(value, hash);

    const HlsConfig &hls = config.hls;
    const DramConfig &dram = hls.dram;
    for (double value : {hls.clockMhz, dram.busClockMhz})
        hash = fnv1aValue(value, hash);
    for (std::uint64_t value :
         {std::uint64_t(hls.axiLaneBits), std::uint64_t(hls.streamlines),
          hls.burstSetupCycles, std::uint64_t(hls.useDramModel),
          dram.busBytes, dram.tRcd, dram.tCl, dram.tRp, dram.rowBytes,
          std::uint64_t(hls.streamVectorOperand),
          std::uint64_t(hls.secondStageCompression),
          hls.bramReadLatency, std::uint64_t(hls.bramPorts),
          hls.loopDepth, hls.hashCycles, hls.multLatency,
          hls.adderStageLatency, hls.writebackLatency})
        hash = fnv1aValue(value, hash);
    return hash;
}

std::uint64_t
workloadSetHash(
    const std::vector<std::pair<std::string, std::uint64_t>> &workloads)
{
    std::uint64_t hash = fnvOffsetBasis;
    hash = fnv1aValue<std::uint64_t>(workloads.size(), hash);
    for (const auto &[name, contentHash] : workloads) {
        hash = fnv1aValue<std::uint64_t>(name.size(), hash);
        hash = fnv1a(name.data(), name.size(), hash);
        hash = fnv1aValue(contentHash, hash);
    }
    return hash;
}

SweepJournal::SweepJournal(const std::string &path,
                           const JournalIdentity &identity)
    : journalPath(path)
{
    load(identity);
}

void
SweepJournal::load(const JournalIdentity &identity)
{
    const MutexLock lock(mutex);

    std::string existing;
    {
        std::ifstream in(journalPath, std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            existing = buffer.str();
        }
    }

    if (!existing.empty()) {
        bool sawHeader = false;
        std::size_t pos = 0;
        while (pos < existing.size()) {
            std::size_t end = existing.find('\n', pos);
            if (end == std::string::npos)
                end = existing.size();
            const std::string_view line(existing.data() + pos,
                                        end - pos);
            pos = end + 1;
            JsonValue value;
            // A torn line (SIGKILL mid-write) simply fails to parse;
            // its design point reruns and is re-appended.
            if (line.empty() || !parseJson(line, value) ||
                !value.isObject()) {
                continue;
            }
            const std::string kind = value.stringOr("kind", "");
            if (!sawHeader) {
                COPERNICUS_FATAL_IF(kind != "header",
                                    "sweep journal '" + journalPath +
                                        "': first record is not an identity "
                                        "header — not a sweep journal");
                std::uint64_t version = 0;
                double versionNumber = 0;
                if (readNumber(value, "version", versionNumber))
                    version =
                        static_cast<std::uint64_t>(versionNumber);
                COPERNICUS_FATAL_IF(version != journalVersion,
                                    "sweep journal '" + journalPath +
                                        "': unsupported version " +
                                        std::to_string(version));
                JournalIdentity stored;
                COPERNICUS_FATAL_IF(!readU64(value, "matrix_hash",
                                             stored.matrixHash) ||
                                        !readU64(value, "matrix_epoch",
                                                 stored.matrixEpoch) ||
                                        !readU64(value, "config_hash",
                                                 stored.configHash),
                                    "sweep journal '" + journalPath +
                                        "': corrupt identity header");
                const auto stale = [&](const char *what,
                                       std::uint64_t was,
                                       std::uint64_t now) {
                    fatal("sweep journal '" + journalPath +
                          "' is stale: " + what +
                          " mismatch (journal " + std::to_string(was) +
                          ", current " + std::to_string(now) +
                          ") — the input changed since the journal "
                          "was written; delete the journal to start "
                          "over");
                };
                if (stored.matrixHash != identity.matrixHash)
                    stale("matrix content hash", stored.matrixHash,
                          identity.matrixHash);
                if (stored.matrixEpoch != identity.matrixEpoch)
                    stale("container epoch", stored.matrixEpoch,
                          identity.matrixEpoch);
                if (stored.configHash != identity.configHash)
                    stale("sweep config", stored.configHash,
                          identity.configHash);
                sawHeader = true;
                continue;
            }
            if (kind != "cell")
                continue;
            std::optional<StudyRow> row = parseCell(value);
            if (!row)
                continue;
            // Keep the first occurrence: a duplicate can only come
            // from a rerun of the same pure design point.
            cells.emplace(CellKey(row->workload,
                                  static_cast<int>(row->format),
                                  row->partitionSize),
                          *row);
        }
        COPERNICUS_FATAL_IF(
            !sawHeader, "sweep journal '" + journalPath +
                            "': no identity header found — not a "
                            "sweep journal");
        resumed = cells.size();
    }

    out.open(journalPath, std::ios::binary | std::ios::app);
    COPERNICUS_FATAL_IF(!out, "sweep journal: cannot open '" + journalPath +
                                  "' for appending");
    if (existing.empty())
        out << serializeHeader(identity) << '\n';
    else if (existing.back() != '\n')
        out << '\n'; // terminate the torn line before appending
    out.flush();
    COPERNICUS_FATAL_IF(
        !out,
        "sweep journal: write to '" + journalPath + "' failed");
}

std::size_t
SweepJournal::resumedCells() const
{
    const MutexLock lock(mutex);
    return resumed;
}

const StudyRow *
SweepJournal::completed(const std::string &workload, FormatKind format,
                        Index partitionSize) const
{
    const MutexLock lock(mutex);
    const auto it = cells.find(
        CellKey(workload, static_cast<int>(format), partitionSize));
    // Map nodes are stable and never erased, so the pointer outlives
    // the lock.
    return it == cells.end() ? nullptr : &it->second;
}

void
SweepJournal::record(const StudyRow &row)
{
    const std::string line = serializeCell(row);
    const MutexLock lock(mutex);
    cells.emplace(CellKey(row.workload, static_cast<int>(row.format),
                          row.partitionSize),
                  row);
    // One flushed line per design point: a kill between records loses
    // nothing, a kill mid-write tears only the final line.
    out << line << '\n';
    out.flush();
    COPERNICUS_FATAL_IF(
        !out,
        "sweep journal: write to '" + journalPath + "' failed");
}

} // namespace copernicus
