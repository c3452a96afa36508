#include "analysis/ascii_plot.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/status.hh"

namespace copernicus {

AsciiPlot::AsciiPlot(PlotConfig config) : cfg(std::move(config))
{
    COPERNICUS_FATAL_IF(cfg.width < 8 || cfg.height < 4,
                        "AsciiPlot canvas too small");
}

void
AsciiPlot::add(double x, double y, char glyph)
{
    if (!std::isfinite(x) || !std::isfinite(y))
        return;
    if ((cfg.logX && x <= 0) || (cfg.logY && y <= 0))
        return;
    data.push_back({x, y, glyph});
}

void
AsciiPlot::legend(char glyph, const std::string &label)
{
    legends.emplace_back(glyph, label);
}

void
AsciiPlot::render(std::ostream &out) const
{
    if (data.empty()) {
        out << "(no points)\n";
        return;
    }

    auto tx = [&](double v) { return cfg.logX ? std::log10(v) : v; };
    auto ty = [&](double v) { return cfg.logY ? std::log10(v) : v; };

    double x_lo = std::numeric_limits<double>::infinity();
    double x_hi = -x_lo, y_lo = x_lo, y_hi = -x_lo;
    for (const auto &point : data) {
        x_lo = std::min(x_lo, tx(point.x));
        x_hi = std::max(x_hi, tx(point.x));
        y_lo = std::min(y_lo, ty(point.y));
        y_hi = std::max(y_hi, ty(point.y));
    }
    if (x_hi == x_lo)
        x_hi = x_lo + 1;
    if (y_hi == y_lo)
        y_hi = y_lo + 1;

    std::vector<std::string> canvas(cfg.height,
                                    std::string(cfg.width, ' '));
    for (const auto &point : data) {
        const auto col = static_cast<std::size_t>(
            (tx(point.x) - x_lo) / (x_hi - x_lo) *
            static_cast<double>(cfg.width - 1));
        const auto row = static_cast<std::size_t>(
            (ty(point.y) - y_lo) / (y_hi - y_lo) *
            static_cast<double>(cfg.height - 1));
        // Row 0 prints at the top; flip so y grows upward.
        canvas[cfg.height - 1 - row][col] = point.glyph;
    }

    if (!cfg.yLabel.empty())
        out << cfg.yLabel << '\n';
    for (const auto &line : canvas)
        out << '|' << line << '\n';
    out << '+' << std::string(cfg.width, '-') << "> "
        << cfg.xLabel << '\n';
    double raw_x_lo = data.front().x, raw_x_hi = data.front().x;
    double raw_y_lo = data.front().y, raw_y_hi = data.front().y;
    for (const auto &point : data) {
        raw_x_lo = std::min(raw_x_lo, point.x);
        raw_x_hi = std::max(raw_x_hi, point.x);
        raw_y_lo = std::min(raw_y_lo, point.y);
        raw_y_hi = std::max(raw_y_hi, point.y);
    }
    out << "x: [" << (cfg.logX ? "log " : "") << raw_x_lo << ", "
        << raw_x_hi << "]  y: [" << (cfg.logY ? "log " : "")
        << raw_y_lo << ", " << raw_y_hi << "]\n";
    if (!legends.empty()) {
        out << "legend:";
        for (const auto &[glyph, label] : legends)
            out << "  " << glyph << "=" << label;
        out << '\n';
    }
}

} // namespace copernicus
