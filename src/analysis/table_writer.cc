#include "analysis/table_writer.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/status.hh"

namespace copernicus {

TableWriter::TableWriter(std::vector<std::string> columns)
    : header(std::move(columns))
{
    COPERNICUS_FATAL_IF(header.empty(),
                        "TableWriter needs at least one column");
}

void
TableWriter::addRow(std::vector<std::string> cells)
{
    COPERNICUS_FATAL_IF(cells.size() != header.size(),
                        "TableWriter row width does not match the header");
    body.push_back(std::move(cells));
}

void
TableWriter::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : body)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << '\n';
    };
    emit(header);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : body)
        emit(row);
}

void
TableWriter::writeCsv(std::ostream &out) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            // Cells are numeric or simple identifiers; quote on demand.
            const bool quote =
                row[c].find_first_of(",\"\n") != std::string::npos;
            if (quote) {
                out << '"';
                for (char ch : row[c]) {
                    if (ch == '"')
                        out << '"';
                    out << ch;
                }
                out << '"';
            } else {
                out << row[c];
            }
            if (c + 1 < row.size())
                out << ',';
        }
        out << '\n';
    };
    emit(header);
    for (const auto &row : body)
        emit(row);
}

void
TableWriter::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(!out, "TableWriter: cannot open '" + path + "'");
    writeCsv(out);
}

std::string
TableWriter::num(double value, int precision)
{
    std::ostringstream out;
    out.precision(precision);
    out << value;
    return out.str();
}

} // namespace copernicus
