#include "matrix/mm_io.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>

#include "common/mmap_file.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/** Drop a trailing '\r' so CRLF files parse like LF files. */
std::string_view
stripCr(std::string_view line)
{
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    return line;
}

/** The separators between the tokens of a line. */
bool
isSeparator(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

/** True for lines holding nothing but whitespace. */
bool
isBlank(std::string_view line)
{
    for (const char c : line)
        if (!isSeparator(c) && c != '\r')
            return false;
    return true;
}

/** Pop the next whitespace-separated token off @p rest. */
std::string_view
nextToken(std::string_view &rest)
{
    const char *p = rest.data();
    const char *const end = p + rest.size();
    while (p != end && isSeparator(*p))
        ++p;
    const char *const begin = p;
    while (p != end && !isSeparator(*p))
        ++p;
    rest = std::string_view(p, static_cast<std::size_t>(end - p));
    return std::string_view(begin, static_cast<std::size_t>(p - begin));
}

enum class NumParse { Ok, Bad, Overflow };

NumParse
parseU64(std::string_view token, std::uint64_t &value)
{
    if (token.empty())
        return NumParse::Bad;
    const auto [ptr, ec] = std::from_chars(
        token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range)
        return NumParse::Overflow;
    if (ec != std::errc() || ptr != token.data() + token.size())
        return NumParse::Bad;
    return NumParse::Ok;
}

/**
 * A value token, with strtod's grammar and value: the whole token must
 * convert. std::from_chars takes the common decimal case without a
 * copy. Both round correctly, so where it converts the whole token the
 * value is the one strtod gives. Everything else goes to strtod: a
 * leading '+', hex floats, out-of-range magnitudes (strtod returns
 * +-HUGE_VAL or 0, from_chars an error), malformed tokens and
 * inf/nan, whose NaN payloads only strtod keeps.
 */
bool
parseDouble(std::string_view token, double &value)
{
    if (token.empty())
        return false;
    const char lead =
        token.size() > 1 && token[0] == '-' ? token[1] : token[0];
    if ((lead >= '0' && lead <= '9') || lead == '.') {
        const char *const last = token.data() + token.size();
        const auto [ptr, ec] = std::from_chars(token.data(), last, value);
        if (ec == std::errc() && ptr == last)
            return true;
    }
    // strtod needs a terminator; tokens are tiny, so a stack copy is
    // cheaper than materializing each line into a std::string.
    char buf[64];
    std::string overflow;
    const char *begin;
    if (token.size() < sizeof(buf)) {
        std::memcpy(buf, token.data(), token.size());
        buf[token.size()] = '\0';
        begin = buf;
    } else {
        overflow.assign(token);
        begin = overflow.c_str();
    }
    char *end = nullptr;
    value = std::strtod(begin, &end);
    return end == begin + token.size();
}

/** What the banner declared. */
struct MmFormat
{
    bool pattern = false;
    bool symmetric = false;
    bool skew = false;
};

MmFormat
parseBanner(std::string_view banner)
{
    std::string_view rest = banner;
    const std::string magic(nextToken(rest));
    const std::string object(nextToken(rest));
    const std::string layout(nextToken(rest));
    std::string field(nextToken(rest));
    std::string symmetry(nextToken(rest));

    COPERNICUS_FATAL_IF(magic != "%%MatrixMarket",
                        "MatrixMarket: missing %%MatrixMarket banner");
    COPERNICUS_FATAL_IF(toLower(object) != "matrix",
                        "MatrixMarket: unsupported object '" + object + "'");
    COPERNICUS_FATAL_IF(toLower(layout) != "coordinate",
                        "MatrixMarket: unsupported layout '" + layout +
                            "' (only coordinate is supported)");

    field = toLower(field);
    symmetry = toLower(symmetry);
    MmFormat fmt;
    fmt.pattern = field == "pattern";
    COPERNICUS_FATAL_IF(field != "real" && field != "integer" && !fmt.pattern,
                        "MatrixMarket: unsupported field '" + field + "'");
    fmt.symmetric = symmetry == "symmetric";
    fmt.skew = symmetry == "skew-symmetric";
    COPERNICUS_FATAL_IF(
        symmetry != "general" && !fmt.symmetric && !fmt.skew,
        "MatrixMarket: unsupported symmetry '" + symmetry + "'");
    COPERNICUS_FATAL_IF(
        fmt.pattern && fmt.skew,
        "MatrixMarket: pattern matrices cannot be "
        "skew-symmetric (a skew mirror needs a negated value)");
    return fmt;
}

/**
 * Core coordinate parser, shared by the stream and mmap paths.
 *
 * @p LineSource provides `bool next(std::string_view &line)`,
 * returning raw lines (no newline) until EOF; the view only has to
 * stay valid until the following call.
 */
template <typename LineSource>
TripletMatrix
parseMatrixMarket(LineSource &&source)
{
    std::string_view line;
    COPERNICUS_FATAL_IF(!source.next(line),
                        "MatrixMarket: empty input stream");
    const MmFormat fmt = parseBanner(stripCr(line));

    const auto nextDataLine = [&source](std::string_view &out) {
        while (source.next(out)) {
            out = stripCr(out);
            if (isBlank(out) || out.front() == '%')
                continue;
            return true;
        }
        return false;
    };

    COPERNICUS_FATAL_IF(!nextDataLine(line),
                        "MatrixMarket: missing size line");
    std::uint64_t rows = 0, cols = 0, count = 0;
    {
        std::string_view rest = line;
        const NumParse rowsParse = parseU64(nextToken(rest), rows);
        const NumParse colsParse = parseU64(nextToken(rest), cols);
        const NumParse countParse = parseU64(nextToken(rest), count);
        COPERNICUS_FATAL_IF(
            rowsParse == NumParse::Bad ||
                colsParse == NumParse::Bad ||
                countParse == NumParse::Bad || !isBlank(rest) ||
                countParse == NumParse::Overflow,
            "MatrixMarket: malformed size line '" +
                std::string(line) + "'");
        // Dimensions are stored as 32-bit Index; a header beyond that
        // (or a u64-overflowing digit string) cannot be represented
        // and must fail loudly instead of truncating.
        constexpr std::uint64_t maxDim =
            std::numeric_limits<Index>::max();
        COPERNICUS_FATAL_IF(
            rowsParse == NumParse::Overflow ||
                colsParse == NumParse::Overflow || rows > maxDim ||
                cols > maxDim,
            "MatrixMarket: size line '" + std::string(line) +
                "' exceeds the 32-bit index space (max " +
                std::to_string(maxDim) + " rows/cols)");
        COPERNICUS_FATAL_IF(rows == 0 || cols == 0,
                            "MatrixMarket: malformed size line '" +
                                std::string(line) + "'");
    }

    TripletMatrix matrix(static_cast<Index>(rows),
                         static_cast<Index>(cols));
    matrix.reserve((fmt.symmetric || fmt.skew) ? 2 * count : count);
    for (std::uint64_t i = 0; i < count; ++i) {
        COPERNICUS_FATAL_IF(!nextDataLine(line),
                            "MatrixMarket: fewer entries than declared");
        std::string_view rest = line;
        std::uint64_t r = 0, c = 0;
        double v = 1.0;
        bool ok = parseU64(nextToken(rest), r) == NumParse::Ok &&
                  parseU64(nextToken(rest), c) == NumParse::Ok;
        if (ok && !fmt.pattern)
            ok = parseDouble(nextToken(rest), v);
        COPERNICUS_FATAL_IF(!ok || !isBlank(rest) || r == 0 || c == 0 ||
                                r > rows || c > cols,
                            "MatrixMarket: malformed entry '" +
                                std::string(line) + "'");
        COPERNICUS_FATAL_IF(fmt.skew && r == c,
                            "MatrixMarket: skew-symmetric entry on the "
                            "diagonal '" +
                                std::string(line) + "'");
        const Index row = static_cast<Index>(r - 1);
        const Index col = static_cast<Index>(c - 1);
        matrix.add(row, col, static_cast<Value>(v));
        if ((fmt.symmetric || fmt.skew) && row != col)
            matrix.add(col, row,
                       static_cast<Value>(fmt.skew ? -v : v));
    }
    matrix.finalize();
    return matrix;
}

/** Lines from a std::istream (buffered getline). */
struct IstreamLineSource
{
    std::istream &in;
    std::string buffer;

    bool
    next(std::string_view &line)
    {
        if (!std::getline(in, buffer))
            return false;
        line = buffer;
        return true;
    }
};

/**
 * Lines straight out of an mmap'd file, zero-copy. Consumed pages are
 * released every window, so parsing a multi-GB .mtx keeps a bounded
 * resident set no matter the file size.
 */
struct MappedLineSource
{
    MmapFile &file;
    std::size_t cursor = 0;
    std::size_t lastDrop = 0;

    /** Drop-behind granularity: 8 MB of parsed text per madvise. */
    static constexpr std::size_t window = 8u << 20;

    bool
    next(std::string_view &line)
    {
        if (cursor >= file.size())
            return false;
        const char *base = reinterpret_cast<const char *>(file.data());
        const void *nl = std::memchr(base + cursor, '\n',
                                     file.size() - cursor);
        const std::size_t end =
            nl == nullptr
                ? file.size()
                : static_cast<std::size_t>(
                      static_cast<const char *>(nl) - base);
        line = std::string_view(base + cursor, end - cursor);
        cursor = end + 1;
        if (cursor - lastDrop >= window) {
            file.dropPagesBefore(cursor);
            lastDrop = cursor;
        }
        return true;
    }
};

} // namespace

TripletMatrix
readMatrixMarket(std::istream &in)
{
    return parseMatrixMarket(IstreamLineSource{in, {}});
}

TripletMatrix
readMatrixMarketFile(const std::string &path)
{
    MmapFile file(path);
    return parseMatrixMarket(MappedLineSource{file});
}

void
writeMatrixMarket(std::ostream &out, const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "writeMatrixMarket requires a finalized matrix");
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << "% written by Copernicus\n";
    out << matrix.rows() << ' ' << matrix.cols() << ' ' << matrix.nnz()
        << '\n';
    for (const auto &t : matrix.triplets())
        out << (t.row + 1) << ' ' << (t.col + 1) << ' ' << t.value << '\n';
}

void
writeMatrixMarketFile(const std::string &path, const TripletMatrix &matrix)
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(
        !out, "MatrixMarket: cannot open '" + path + "' for writing");
    writeMatrixMarket(out, matrix);
}

} // namespace copernicus
