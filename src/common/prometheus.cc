#include "common/prometheus.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace copernicus {

namespace {

bool
validNameChar(char c, bool first)
{
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        c == ':')
        return true;
    return !first && std::isdigit(static_cast<unsigned char>(c));
}

/** Escape a label value per the exposition spec. */
std::string
escapeLabelValue(const std::string &value)
{
    std::string escaped;
    escaped.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            escaped += "\\\\";
            break;
          case '"':
            escaped += "\\\"";
            break;
          case '\n':
            escaped += "\\n";
            break;
          default:
            escaped += c;
        }
    }
    return escaped;
}

/** A sample value: finite shortest-round-trip, else +Inf/-Inf/NaN. */
std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    std::ostringstream str;
    str.precision(17);
    str << v;
    return str.str();
}

std::string
formatLabels(const std::vector<PrometheusLabel> &labels)
{
    if (labels.empty())
        return "";
    std::string text = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i > 0)
            text += ',';
        text += prometheusSanitizeName(labels[i].first);
        text += "=\"";
        text += escapeLabelValue(labels[i].second);
        text += '"';
    }
    text += '}';
    return text;
}

} // namespace

std::string
prometheusSanitizeName(const std::string &name)
{
    std::string clean;
    clean.reserve(name.size());
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        clean += validNameChar(c, clean.empty()) ? c : '_';
    }
    if (clean.empty())
        clean = "_";
    return clean;
}

void
PrometheusWriter::head(const std::string &name, const std::string &help,
                       const char *type)
{
    out += "# HELP " + name + ' ' + help + '\n';
    out += "# TYPE " + name + ' ' + type + '\n';
}

void
PrometheusWriter::counter(
    const std::string &name, const std::string &help,
    const std::vector<std::pair<std::vector<PrometheusLabel>, double>>
        &series)
{
    const std::string clean = prometheusSanitizeName(name);
    head(clean, help, "counter");
    for (const auto &entry : series) {
        out += clean + formatLabels(entry.first) + ' ' +
               formatValue(entry.second) + '\n';
    }
}

void
PrometheusWriter::gauge(
    const std::string &name, const std::string &help,
    const std::vector<std::pair<std::vector<PrometheusLabel>, double>>
        &series)
{
    const std::string clean = prometheusSanitizeName(name);
    head(clean, help, "gauge");
    for (const auto &entry : series) {
        out += clean + formatLabels(entry.first) + ' ' +
               formatValue(entry.second) + '\n';
    }
}

void
PrometheusWriter::histogram(
    const std::string &name, const std::string &help,
    const std::vector<std::pair<std::vector<PrometheusLabel>,
                                DistributionStat::Snapshot>> &series,
    double scale)
{
    const std::string clean = prometheusSanitizeName(name);
    head(clean, help, "histogram");
    for (const auto &entry : series) {
        const DistributionStat::Snapshot &snap = entry.second;
        const double width =
            snap.bins.empty()
                ? 0.0
                : (snap.hi - snap.lo) /
                      static_cast<double>(snap.bins.size());
        // Cumulative counts: underflow mass is below lo, so every
        // finite bound (all of which are > lo) already contains it.
        // Only the bin edges at 1, 2 and 5 times a power of ten of the
        // bin width are exported; each is an exact edge, so its count
        // is exact.
        static constexpr std::size_t ladder[] = {1, 2, 5};
        std::size_t step = 0;
        std::size_t decade = 1;
        std::uint64_t cum = snap.underflow;
        for (std::size_t b = 0; b < snap.bins.size(); ++b) {
            cum += snap.bins[b];
            const std::size_t edge = b + 1;
            if (edge != ladder[step] * decade)
                continue;
            if (++step == std::size(ladder)) {
                step = 0;
                decade *= 10;
            }
            std::vector<PrometheusLabel> labels = entry.first;
            const double bound =
                (snap.lo + static_cast<double>(edge) * width) * scale;
            labels.emplace_back("le", formatValue(bound));
            out += clean + "_bucket" + formatLabels(labels) + ' ' +
                   std::to_string(cum) + '\n';
        }
        std::vector<PrometheusLabel> labels = entry.first;
        labels.emplace_back("le", "+Inf");
        out += clean + "_bucket" + formatLabels(labels) + ' ' +
               std::to_string(snap.count) + '\n';
        out += clean + "_sum" + formatLabels(entry.first) + ' ' +
               formatValue(snap.sum * scale) + '\n';
        out += clean + "_count" + formatLabels(entry.first) + ' ' +
               std::to_string(snap.count) + '\n';
    }
}

namespace {

/** One parsed sample line. */
struct Sample
{
    std::string name;
    std::string otherLabels; ///< canonical labels minus any `le`
    bool hasLe = false;
    double le = 0;
    double value = 0;
};

bool
parseName(const std::string &line, std::size_t &pos, std::string &name)
{
    const std::size_t start = pos;
    while (pos < line.size() && validNameChar(line[pos], pos == start))
        ++pos;
    if (pos == start)
        return false;
    name = line.substr(start, pos - start);
    return true;
}

bool
parseValueToken(const std::string &token, double &value)
{
    if (token == "+Inf" || token == "Inf") {
        value = std::numeric_limits<double>::infinity();
        return true;
    }
    if (token == "-Inf") {
        value = -std::numeric_limits<double>::infinity();
        return true;
    }
    if (token == "NaN") {
        value = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    char *end = nullptr;
    value = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0' && end != token.c_str();
}

/** Parse `name{labels} value [timestamp]`. */
bool
parseSample(const std::string &line, Sample &sample, std::string &error)
{
    std::size_t pos = 0;
    if (!parseName(line, pos, sample.name)) {
        error = "bad metric name";
        return false;
    }
    sample.hasLe = false;
    std::vector<PrometheusLabel> labels;
    if (pos < line.size() && line[pos] == '{') {
        ++pos;
        while (pos < line.size() && line[pos] != '}') {
            std::string labelName;
            if (!parseName(line, pos, labelName)) {
                error = "bad label name";
                return false;
            }
            if (pos >= line.size() || line[pos] != '=') {
                error = "missing '=' after label name";
                return false;
            }
            ++pos;
            if (pos >= line.size() || line[pos] != '"') {
                error = "label value not quoted";
                return false;
            }
            ++pos;
            std::string labelValue;
            while (pos < line.size() && line[pos] != '"') {
                if (line[pos] == '\\') {
                    if (pos + 1 >= line.size()) {
                        error = "dangling escape in label value";
                        return false;
                    }
                    ++pos;
                }
                labelValue += line[pos];
                ++pos;
            }
            if (pos >= line.size()) {
                error = "unterminated label value";
                return false;
            }
            ++pos; // closing quote
            if (labelName == "le") {
                sample.hasLe = true;
                if (!parseValueToken(labelValue, sample.le)) {
                    error = "le label is not a number";
                    return false;
                }
            } else {
                labels.emplace_back(labelName, labelValue);
            }
            if (pos < line.size() && line[pos] == ',')
                ++pos;
        }
        if (pos >= line.size() || line[pos] != '}') {
            error = "unterminated label set";
            return false;
        }
        ++pos;
    }
    if (pos >= line.size() || (line[pos] != ' ' && line[pos] != '\t')) {
        error = "missing value";
        return false;
    }
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t'))
        ++pos;
    std::size_t valueEnd = pos;
    while (valueEnd < line.size() && line[valueEnd] != ' ' &&
           line[valueEnd] != '\t')
        ++valueEnd;
    if (!parseValueToken(line.substr(pos, valueEnd - pos),
                         sample.value)) {
        error = "bad sample value";
        return false;
    }
    // Canonical key for grouping histogram series: sorted labels.
    std::map<std::string, std::string> sorted(labels.begin(),
                                              labels.end());
    sample.otherLabels.clear();
    for (const auto &label : sorted)
        sample.otherLabels += label.first + '=' + label.second + ';';
    return true;
}

/** Strip histogram sample suffixes to get the family name. */
std::string
familyOf(const std::string &name, const std::string &histogramFamily)
{
    if (histogramFamily.empty())
        return name;
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
        const std::string candidate = histogramFamily + suffix;
        if (name == candidate)
            return histogramFamily;
    }
    return name;
}

} // namespace

bool
validatePrometheusText(const std::string &text, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;

    std::map<std::string, std::string> types; ///< family -> TYPE
    std::set<std::string> closedFamilies;
    std::string openFamily;
    // (family, labels) -> cumulative bucket values in order.
    std::map<std::pair<std::string, std::string>,
             std::vector<std::pair<double, double>>>
        buckets;
    std::map<std::pair<std::string, std::string>, double> counts;

    auto fail = [&](const std::string &what) {
        error = "line " + std::to_string(lineNo) + ": " + what +
                " [" + line + "]";
        return false;
    };

    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream comment(line);
            std::string hash, kind, family;
            comment >> hash >> kind;
            if (kind != "HELP" && kind != "TYPE")
                continue; // a plain comment
            if (!(comment >> family))
                return fail("# " + kind + " without a metric name");
            if (kind == "TYPE") {
                std::string type;
                if (!(comment >> type))
                    return fail("# TYPE without a type");
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped")
                    return fail("unknown TYPE '" + type + "'");
                if (types.count(family))
                    return fail("duplicate TYPE for '" + family + "'");
                if (closedFamilies.count(family))
                    return fail("TYPE after samples of '" + family +
                                "' ended");
                types[family] = type;
            }
            continue;
        }

        Sample sample;
        std::string parseError;
        if (!parseSample(line, sample, parseError))
            return fail(parseError);

        // Resolve the family: histogram children map to their parent.
        std::string family = sample.name;
        for (const auto &entry : types) {
            if (entry.second != "histogram")
                continue;
            const std::string mapped =
                familyOf(sample.name, entry.first);
            if (mapped != sample.name) {
                family = mapped;
                break;
            }
        }

        if (family != openFamily) {
            if (closedFamilies.count(family))
                return fail("family '" + family +
                            "' interleaved with another family");
            if (!openFamily.empty())
                closedFamilies.insert(openFamily);
            openFamily = family;
        }

        const auto typeIt = types.find(family);
        if (typeIt == types.end())
            return fail("sample of '" + family + "' without # TYPE");

        if (typeIt->second == "histogram") {
            const auto key = std::make_pair(family, sample.otherLabels);
            if (sample.name == family + "_bucket") {
                if (!sample.hasLe)
                    return fail("_bucket sample without le label");
                buckets[key].emplace_back(sample.le, sample.value);
            } else if (sample.name == family + "_count") {
                counts[key] = sample.value;
            } else if (sample.name != family + "_sum") {
                return fail("histogram family '" + family +
                            "' has non-histogram sample '" +
                            sample.name + "'");
            }
        }
    }

    // Cross-line histogram checks.
    for (const auto &entry : buckets) {
        const auto &series = entry.second;
        double lastLe = -std::numeric_limits<double>::infinity();
        double lastValue = -1;
        bool sawInf = false;
        for (const auto &bucket : series) {
            if (bucket.first <= lastLe) {
                error = "histogram '" + entry.first.first +
                        "': le bounds not increasing";
                return false;
            }
            if (bucket.second < lastValue) {
                error = "histogram '" + entry.first.first +
                        "': bucket counts not cumulative";
                return false;
            }
            lastLe = bucket.first;
            lastValue = bucket.second;
            if (std::isinf(bucket.first) && bucket.first > 0)
                sawInf = true;
        }
        if (!sawInf) {
            error = "histogram '" + entry.first.first +
                    "': missing le=\"+Inf\" bucket";
            return false;
        }
        const auto countIt = counts.find(entry.first);
        if (countIt == counts.end()) {
            error = "histogram '" + entry.first.first +
                    "': missing _count";
            return false;
        }
        if (countIt->second != series.back().second) {
            error = "histogram '" + entry.first.first +
                    "': +Inf bucket disagrees with _count";
            return false;
        }
    }

    error.clear();
    return true;
}

} // namespace copernicus
