#include "common/stat_group.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "common/json.hh"
#include "common/status.hh"

namespace copernicus {

StatBase::StatBase(StatGroup &group, std::string name, std::string desc)
    : _group(group), _name(std::move(name)), _desc(std::move(desc))
{
    group.registerStat(this);
}

StatBase::~StatBase()
{
    _group.unregisterStat(this);
}

namespace {

void
printLine(std::ostream &out, const std::string &name, double value,
          const std::string &desc)
{
    out << std::left << std::setw(40) << name << std::right
        << std::setw(16) << value << "  # " << desc << '\n';
}

/** Common `"name": ..., "kind": ..., "desc": ...` prefix. */
void
jsonHead(std::ostream &out, const StatBase &stat, const char *kind)
{
    out << "{\"name\": ";
    writeJsonString(out, stat.name());
    out << ", \"kind\": \"" << kind << "\", \"desc\": ";
    writeJsonString(out, stat.description());
}

void
jsonField(std::ostream &out, const char *key, double value)
{
    out << ", \"" << key << "\": ";
    writeJsonNumber(out, value);
}

} // namespace

void
ScalarStat::print(std::ostream &out) const
{
    printLine(out, name(), value(), description());
}

void
ScalarStat::writeJson(std::ostream &out) const
{
    jsonHead(out, *this, "scalar");
    jsonField(out, "value", value());
    out << '}';
}

void
AverageStat::print(std::ostream &out) const
{
    printLine(out, name(), mean(),
              description() + " (mean of " + std::to_string(samples()) +
                  " samples)");
}

void
AverageStat::writeJson(std::ostream &out) const
{
    jsonHead(out, *this, "average");
    jsonField(out, "mean", mean());
    jsonField(out, "samples", static_cast<double>(samples()));
    out << '}';
}

DistributionStat::DistributionStat(StatGroup &group, std::string name,
                                   std::string desc, double lo,
                                   double hi, std::size_t bucketCount)
    : StatBase(group, std::move(name), std::move(desc)), lo(lo), hi(hi),
      bins(bucketCount, 0)
{
    COPERNICUS_FATAL_IF(bucketCount == 0,
                        "DistributionStat needs at least one bucket");
    // The degenerate lo == hi range would make the bucket width zero
    // and turn every sample() into a division by zero.
    COPERNICUS_FATAL_IF(
        hi == lo,
        "DistributionStat range [" + std::to_string(lo) + ", " +
            std::to_string(hi) +
            ") is empty: lo == hi gives zero-width buckets");
    COPERNICUS_FATAL_IF(hi < lo,
                        "DistributionStat range must satisfy lo < hi");
}

void
DistributionStat::sample(double v)
{
    const MutexLock lock(mutex);
    ++count;
    sum += v;
    min_seen = std::min(min_seen, v);
    max_seen = std::max(max_seen, v);
    if (v < lo) {
        ++underflow;
    } else if (v >= hi) {
        ++overflow;
    } else {
        const double width = (hi - lo) / static_cast<double>(bins.size());
        auto bucket = static_cast<std::size_t>((v - lo) / width);
        if (bucket >= bins.size())
            bucket = bins.size() - 1; // guard float edge
        ++bins[bucket];
    }
}

DistributionStat::Snapshot
DistributionStat::snapshotLocked() const
{
    Snapshot snap;
    snap.lo = lo;
    snap.hi = hi;
    snap.bins = bins;
    snap.underflow = underflow;
    snap.overflow = overflow;
    snap.count = count;
    snap.min = min_seen;
    snap.max = max_seen;
    snap.sum = sum;
    return snap;
}

DistributionStat::Snapshot
DistributionStat::snapshot() const
{
    const MutexLock lock(mutex);
    return snapshotLocked();
}

std::uint64_t
DistributionStat::samples() const
{
    const MutexLock lock(mutex);
    return count;
}

double
DistributionStat::minSample() const
{
    const MutexLock lock(mutex);
    return min_seen;
}

double
DistributionStat::maxSample() const
{
    const MutexLock lock(mutex);
    return max_seen;
}

double
DistributionStat::sumSamples() const
{
    const MutexLock lock(mutex);
    return sum;
}

void
DistributionStat::Snapshot::merge(const Snapshot &other)
{
    COPERNICUS_FATAL_IF(lo != other.lo || hi != other.hi ||
                            bins.size() != other.bins.size(),
                        "DistributionStat::Snapshot::merge: mismatched bucket "
                        "configuration");
    for (std::size_t b = 0; b < bins.size(); ++b)
        bins[b] += other.bins[b];
    underflow += other.underflow;
    overflow += other.overflow;
    count += other.count;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    sum += other.sum;
}

double
DistributionStat::emptyPercentile()
{
    return std::numeric_limits<double>::quiet_NaN();
}

double
DistributionStat::percentile(double p) const
{
    const MutexLock lock(mutex);
    return percentileLocked(p);
}

double
DistributionStat::percentileLocked(double p) const
{
    return snapshotLocked().percentile(p);
}

double
DistributionStat::Snapshot::percentile(double p) const
{
    COPERNICUS_FATAL_IF(p < 0.0 || p > 100.0,
                        "percentile(" + std::to_string(p) +
                            ") is outside [0, 100]");
    if (count == 0)
        return emptyPercentile();
    // All samples equal (the single-sample case included): the answer
    // is that sample exactly, not a value interpolated across its
    // bucket's width.
    if (min == max)
        return min;

    const double target = p / 100.0 * static_cast<double>(count);
    double cum = 0;

    // Underflow mass sits in [min, lo).
    if (underflow > 0) {
        if (target <= cum + static_cast<double>(underflow)) {
            const double frac = (target - cum) / underflow;
            return min + frac * (lo - min);
        }
        cum += static_cast<double>(underflow);
    }

    const double width = (hi - lo) / static_cast<double>(bins.size());
    for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b] == 0)
            continue;
        if (target <= cum + static_cast<double>(bins[b])) {
            const double frac = (target - cum) / bins[b];
            return lo + (static_cast<double>(b) + frac) * width;
        }
        cum += static_cast<double>(bins[b]);
    }

    // Overflow mass sits in [hi, max].
    if (overflow > 0) {
        const double frac =
            std::min(1.0, (target - cum) / overflow);
        return hi + frac * (max - hi);
    }
    return max;
}

void
DistributionStat::print(std::ostream &out) const
{
    const MutexLock lock(mutex);
    printLine(out, name() + ".samples", static_cast<double>(count),
              description());
    if (count == 0)
        return;
    printLine(out, name() + ".min", min_seen, "minimum sample");
    printLine(out, name() + ".max", max_seen, "maximum sample");
    printLine(out, name() + ".p50", percentileLocked(50),
              "50th percentile (interpolated)");
    printLine(out, name() + ".p95", percentileLocked(95),
              "95th percentile (interpolated)");
    printLine(out, name() + ".p99", percentileLocked(99),
              "99th percentile (interpolated)");
    const double width = (hi - lo) / static_cast<double>(bins.size());
    if (underflow > 0) {
        printLine(out, name() + ".underflow",
                  static_cast<double>(underflow), "samples below range");
    }
    for (std::size_t b = 0; b < bins.size(); ++b) {
        if (bins[b] == 0)
            continue;
        printLine(out,
                  name() + "[" + std::to_string(lo + b * width) + "," +
                      std::to_string(lo + (b + 1) * width) + ")",
                  static_cast<double>(bins[b]), "bucket count");
    }
    if (overflow > 0) {
        printLine(out, name() + ".overflow",
                  static_cast<double>(overflow), "samples above range");
    }
}

void
DistributionStat::writeJson(std::ostream &out) const
{
    const MutexLock lock(mutex);
    jsonHead(out, *this, "distribution");
    jsonField(out, "samples", static_cast<double>(count));
    jsonField(out, "lo", lo);
    jsonField(out, "hi", hi);
    jsonField(out, "underflow", static_cast<double>(underflow));
    jsonField(out, "overflow", static_cast<double>(overflow));
    out << ", \"buckets\": [";
    for (std::size_t b = 0; b < bins.size(); ++b) {
        if (b > 0)
            out << ", ";
        out << bins[b];
    }
    out << ']';
    if (count > 0) {
        jsonField(out, "min", min_seen);
        jsonField(out, "max", max_seen);
        jsonField(out, "p50", percentileLocked(50));
        jsonField(out, "p95", percentileLocked(95));
        jsonField(out, "p99", percentileLocked(99));
    }
    out << '}';
}

void
StatGroup::registerStat(StatBase *stat)
{
    for (const StatBase *existing : members) {
        COPERNICUS_FATAL_IF(
            existing->name() == stat->name(),
            "duplicate stat name '" + stat->name() + "' in group '" +
                _name + "'");
    }
    members.push_back(stat);
}

void
StatGroup::unregisterStat(StatBase *stat)
{
    // A duplicate-name registration throws before push_back, so its
    // destructor unregisters a stat that was never added: ignore it.
    members.erase(std::remove(members.begin(), members.end(), stat),
                  members.end());
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const StatBase *stat : members)
        if (stat->name() == name)
            return stat;
    return nullptr;
}

void
StatGroup::dump(std::ostream &out) const
{
    out << "---------- " << _name << " ----------\n";
    for (const StatBase *stat : members)
        stat->print(out);
}

void
StatGroup::dumpJson(std::ostream &out) const
{
    out << "{\"group\": ";
    writeJsonString(out, _name);
    out << ", \"stats\": [";
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0)
            out << ", ";
        members[i]->writeJson(out);
    }
    out << "]}";
}

void
dumpGroupsJson(std::ostream &out,
               const std::vector<const StatGroup *> &groups)
{
    out << "{\"groups\": [";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        if (i > 0)
            out << ", ";
        groups[i]->dumpJson(out);
    }
    out << "]}\n";
}

} // namespace copernicus
