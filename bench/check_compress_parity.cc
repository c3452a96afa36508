/**
 * @file
 * Second-stage byte parity: run the full bench_compress into its own
 * artifact and require every raw_bytes, compressed_bytes and fig10
 * value to equal the committed BENCH_compress.json. Those values are
 * deterministic; the throughputs beside them are timings and are not
 * compared.
 *
 *   check_compress_parity <bench_compress> <committed.json> <out.json>
 *
 * Exit status: 0 on parity, 1 on a mismatch or a failed bench run.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"

using namespace copernicus;

namespace {

bool
loadJson(const std::string &path, JsonValue &doc)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in && parseJson(text.str(), doc))
        return true;
    std::fprintf(stderr, "FAIL: cannot parse '%s'\n", path.c_str());
    return false;
}

/** Values compared and mismatches found so far. */
struct Tally
{
    std::size_t compared = 0;
    std::size_t mismatched = 0;
};

void
mismatch(Tally &tally, const std::string &path, const char *what)
{
    ++tally.mismatched;
    std::fprintf(stderr, "mismatch at %s: %s\n", path.c_str(), what);
}

/**
 * Walk @p want alongside @p got. Leaves under a raw_bytes,
 * compressed_bytes or fig10 key are pinned and must be equal; the
 * containers that hold them must match in shape.
 */
void
compare(const JsonValue &want, const JsonValue *got,
        const std::string &path, bool pinned, Tally &tally)
{
    const bool container = want.isObject() || want.isArray();
    if (!pinned && !container)
        return;
    if (got == nullptr || got->kind != want.kind) {
        mismatch(tally, path, "missing or of another type");
        return;
    }
    if (want.isObject()) {
        for (const auto &[key, member] : want.members)
            compare(member, got->find(key), path + "." + key,
                    pinned || key == "raw_bytes" ||
                        key == "compressed_bytes" || key == "fig10",
                    tally);
    } else if (want.isArray()) {
        if (got->elements.size() != want.elements.size()) {
            mismatch(tally, path, "array length differs");
            return;
        }
        for (std::size_t i = 0; i < want.elements.size(); ++i)
            compare(want.elements[i], &got->elements[i],
                    path + "[" + std::to_string(i) + "]", pinned, tally);
    } else {
        ++tally.compared;
        if (want.number != got->number || want.text != got->text ||
            want.boolean != got->boolean)
            mismatch(tally, path, "value differs");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: check_compress_parity "
                             "<bench_compress> <committed.json> "
                             "<out.json>\n");
        return 2;
    }
    const std::string out = argv[3];
    const std::string cmd = std::string(argv[1]) + " --json " + out +
                            " > " + out + ".log 2>&1";
    std::printf("running: %s\n", cmd.c_str());
    if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "FAIL: bench_compress failed; see %s.log\n",
                     out.c_str());
        return 1;
    }

    JsonValue committed;
    JsonValue fresh;
    if (!loadJson(argv[2], committed) || !loadJson(out, fresh))
        return 1;
    Tally tally;
    compare(committed, &fresh, "", false, tally);
    if (tally.mismatched != 0 || tally.compared == 0) {
        std::fprintf(stderr,
                     "FAIL: %zu of %zu pinned values differ from %s\n",
                     tally.mismatched, tally.compared, argv[2]);
        return 1;
    }
    std::printf("parity: %zu raw_bytes, compressed_bytes and fig10 "
                "values equal %s\n",
                tally.compared, argv[2]);
    return 0;
}
