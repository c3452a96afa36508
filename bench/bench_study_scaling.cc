/**
 * @file
 * Study sweep scaling: wall-clock seconds of one fixed Study::run()
 * sweep at jobs = 1, 2, 4 and the hardware concurrency. Emits
 * BENCH_study_scaling.json (seconds and speedup vs jobs=1 per jobs
 * setting) and asserts that every parallel run produces rows
 * bit-identical to the serial run — the determinism contract of the
 * parallel sweep engine.
 *
 * Honest measurement note: speedup is whatever the host delivers. On a
 * single-core container every configuration runs the same work on one
 * lane and speedup stays ~1.0; the bench reports the measured number,
 * not an expectation.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "analysis/table_writer.hh"
#include "bench_common.hh"
#include "common/json.hh"
#include "core/study.hh"

using namespace copernicus;

namespace {

/** Every StudyRow field, compared exactly (doubles included). */
bool
rowsIdentical(const std::vector<StudyRow> &a,
              const std::vector<StudyRow> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const StudyRow &x = a[i];
        const StudyRow &y = b[i];
        const bool same =
            x.workload == y.workload && x.format == y.format &&
            x.partitionSize == y.partitionSize &&
            x.meanSigma == y.meanSigma &&
            x.totalCycles == y.totalCycles && x.seconds == y.seconds &&
            x.memoryCycles == y.memoryCycles &&
            x.computeCycles == y.computeCycles &&
            x.balanceRatio == y.balanceRatio &&
            x.throughput == y.throughput &&
            x.bandwidthUtilization == y.bandwidthUtilization &&
            x.totalBytes == y.totalBytes &&
            x.partitions == y.partitions &&
            x.resources.bram18k == y.resources.bram18k &&
            x.resources.ffK == y.resources.ffK &&
            x.resources.lutK == y.resources.lutK &&
            x.resources.calibrated == y.resources.calibrated &&
            x.power.logicW == y.power.logicW &&
            x.power.bramW == y.power.bramW &&
            x.power.signalsW == y.power.signalsW &&
            x.power.staticW == y.power.staticW;
        if (!same)
            return false;
    }
    return true;
}

struct Measurement
{
    unsigned jobs = 0;
    double seconds = 0;
    double speedup = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    benchutil::banner("study scaling",
                      "fixed Study sweep at jobs = 1/2/4/hw; parallel "
                      "rows must be bit-identical to serial",
                      argc, argv);

    // A fixed, seed-pinned sweep: two structures the formats disagree
    // on (uniform random, banded) at the paper's partition sizes.
    Rng rngRandom(benchutil::benchSeed);
    Rng rngBand(benchutil::benchSeed + 1);
    const TripletMatrix random = randomMatrix(512, 0.05, rngRandom);
    const TripletMatrix band = bandMatrix(512, 16, rngBand);

    std::vector<unsigned> jobsSweep = {1, 2, 4, hardwareJobs()};
    std::sort(jobsSweep.begin(), jobsSweep.end());
    jobsSweep.erase(std::unique(jobsSweep.begin(), jobsSweep.end()),
                    jobsSweep.end());

    std::vector<Measurement> table;
    bool identical = true;
    std::vector<StudyRow> serialRows;
    double serialSeconds = 0;
    for (unsigned jobs : jobsSweep) {
        StudyConfig cfg;
        cfg.jobs = jobs;
        Study study(cfg);
        study.addWorkload("random", random);
        study.addWorkload("band", band);

        const auto start = std::chrono::steady_clock::now();
        const StudyResult result = study.run();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        if (jobs == jobsSweep.front()) {
            serialRows = result.rows;
            serialSeconds = elapsed.count();
        } else if (!rowsIdentical(serialRows, result.rows)) {
            identical = false;
        }

        Measurement m;
        m.jobs = jobs;
        m.seconds = elapsed.count();
        m.speedup =
            elapsed.count() > 0 ? serialSeconds / elapsed.count() : 0;
        table.push_back(m);
    }

    TableWriter out({"jobs", "seconds", "speedup vs jobs=1"});
    for (const Measurement &m : table) {
        out.addRow({std::to_string(m.jobs), TableWriter::num(m.seconds, 4),
                    TableWriter::num(m.speedup, 3)});
    }
    out.print(std::cout);

    std::cout << "\nrows bit-identical across jobs settings: "
              << (identical ? "yes" : "NO — determinism bug") << '\n';

    const char *jsonPath = "BENCH_study_scaling.json";
    std::ofstream json(jsonPath);
    fatalIf(!json, std::string("cannot open '") + jsonPath + "'");
    json << "{\n  \"identical_rows\": "
         << (identical ? "true" : "false") << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Measurement &m = table[i];
        json << "    {\"jobs\": " << m.jobs << ", \"seconds\": ";
        writeJsonNumber(json, m.seconds);
        json << ", \"speedup\": ";
        writeJsonNumber(json, m.speedup);
        json << '}' << (i + 1 < table.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << jsonPath << '\n';

    return identical ? 0 : 1;
}
