/**
 * @file
 * Shared plumbing for the source-scanning lint rules (COP063 narrowing
 * casts, COP082 bare mutexes).
 *
 * The scans run over the checkout the binary was built from: the build
 * bakes the source root in (COPERNICUS_SOURCE_ROOT), and LintOptions
 * can override it for tests. A missing root is not an error — a
 * binary run away from its checkout has no source tree, so the scans
 * simply skip.
 */

#ifndef COPERNICUS_ANALYSIS_SOURCE_SCAN_HH
#define COPERNICUS_ANALYSIS_SOURCE_SCAN_HH

#include <string>
#include <vector>

namespace copernicus {

struct LintOptions;

/**
 * The source root the scans should use: options.sourceRoot when set,
 * else the compiled-in checkout path, else "".
 */
std::string lintSourceRoot(const LintOptions &options);

/** Read @p path into @p out; false when it cannot be opened. */
bool readTextFile(const std::string &path, std::string &out);

/** Split @p contents into lines (no trailing newlines kept). */
std::vector<std::string> splitLines(const std::string &contents);

/**
 * Every .hh file under @p root's src/ tree, as paths relative to
 * @p root; empty when the directory does not exist.
 */
std::vector<std::string> listHeadersUnderSrc(const std::string &root);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_SOURCE_SCAN_HH
