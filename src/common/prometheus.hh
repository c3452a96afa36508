/**
 * @file
 * Prometheus text exposition (version 0.0.4) writer and checker.
 *
 * The serve daemon's `metrics` endpoint renders its counters and
 * latency distributions in the one format every scrape ecosystem
 * already understands, without taking a client-library dependency:
 * the format is line-oriented text and this writer assembles it
 * directly from ScalarStat values and DistributionStat::Snapshot
 * copies — by the time a sample reaches the writer no lock is held,
 * which is what keeps scrapes off the request threads.
 *
 * Naming conventions (documented in src/trace/README.md): every series
 * is prefixed `copernicus_`, counters end in `_total`, histograms use
 * the native `_bucket`/`_sum`/`_count` triple with cumulative `le`
 * labels, and label values are escaped per the exposition spec.
 *
 * validatePrometheusText() is the matching checker — the CI serve job
 * pipes a live scrape through it so a formatting regression fails the
 * build rather than the first real scraper.
 */

#ifndef COPERNICUS_COMMON_PROMETHEUS_HH
#define COPERNICUS_COMMON_PROMETHEUS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stat_group.hh"

namespace copernicus {

/** One `name="value"` pair; values are escaped by the writer. */
using PrometheusLabel = std::pair<std::string, std::string>;

/**
 * Accumulates one exposition document. Families must be written as a
 * unit (the spec forbids interleaving series of different families),
 * so each counter()/gauge()/histogram() call emits the family's
 * `# HELP`/`# TYPE` header once followed by all its series.
 */
class PrometheusWriter
{
  public:
    /**
     * A counter family with one series per label set.
     * @param name Metric name without suffix conventions applied;
     *        sanitised (invalid chars -> '_').
     * @param help One-line help text.
     * @param series (labels, value) pairs, one exposition line each.
     */
    void counter(const std::string &name, const std::string &help,
                 const std::vector<std::pair<std::vector<PrometheusLabel>,
                                             double>> &series);

    /** A gauge family; same shape as counter(). */
    void gauge(const std::string &name, const std::string &help,
               const std::vector<std::pair<std::vector<PrometheusLabel>,
                                           double>> &series);

    /**
     * A histogram family from distribution snapshots: per series the
     * cumulative `_bucket{le="..."}` lines, then `le="+Inf"`, `_sum`
     * and `_count`. The exported bounds are the snapshot's bin edges
     * at 1, 2 and 5 times a power of ten of the bin width (lo + w,
     * lo + 2w, lo + 5w, lo + 10w, ... up to hi), so a 1000-bin
     * distribution exports 10 exact buckets rather than 1000.
     * Underflow mass lands in the first bucket (all bounds above lo
     * contain it cumulatively); overflow only in `+Inf`.
     *
     * @param scale Multiplier applied to bounds and sums on the way
     *        out — the serve histograms count microseconds but are
     *        exported in seconds (scale 1e-6) per Prometheus base-unit
     *        convention.
     */
    void histogram(
        const std::string &name, const std::string &help,
        const std::vector<std::pair<std::vector<PrometheusLabel>,
                                    DistributionStat::Snapshot>> &series,
        double scale = 1.0);

    /** The document so far (families in call order). */
    const std::string &text() const { return out; }

  private:
    void head(const std::string &name, const std::string &help,
              const char *type);

    std::string out;
};

/** Metric-name sanitiser: [a-zA-Z0-9_:], leading digit prefixed. */
std::string prometheusSanitizeName(const std::string &name);

/**
 * Check @p text against the exposition format: name syntax, HELP/TYPE
 * placement, no family interleaving, histogram bucket monotonicity and
 * the `+Inf` bucket / `_count` agreement. On failure @p error names
 * the offending line. Deliberately small — a format smoke checker for
 * tests and the CI scrape job, not a full client parser.
 */
bool validatePrometheusText(const std::string &text, std::string &error);

} // namespace copernicus

#endif // COPERNICUS_COMMON_PROMETHEUS_HH
