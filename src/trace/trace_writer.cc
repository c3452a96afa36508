#include "trace/trace_writer.hh"

#include <fstream>
#include <ostream>

#include "common/json.hh"
#include "common/status.hh"

namespace copernicus {

TraceWriter::TraceWriter() : scopeNames{"copernicus"} {}

void
TraceWriter::beginScope(std::string_view name)
{
    scopeNames.emplace_back(name);
    currentPid = static_cast<int>(scopeNames.size()) - 1;
}

void
TraceWriter::durationEvent(std::string_view track,
                           std::string_view name, Cycles start,
                           Cycles end)
{
    COPERNICUS_PANIC_IF(
        end < start, "TraceWriter: duration event ends before it "
                     "starts");
    Event event;
    event.phase = 'X';
    event.pid = currentPid;
    event.track = std::string(track);
    event.name = std::string(name);
    event.ts = start;
    event.dur = end - start;
    recorded.push_back(std::move(event));
}

void
TraceWriter::durationEventArgs(std::string_view track,
                               std::string_view name, Cycles start,
                               Cycles end, std::string argsJson)
{
    durationEvent(track, name, start, end);
    recorded.back().args = std::move(argsJson);
}

void
TraceWriter::counterEvent(std::string_view counter, Cycles ts,
                          double value)
{
    Event event;
    event.phase = 'C';
    event.pid = currentPid;
    event.name = std::string(counter);
    event.ts = ts;
    event.value = value;
    recorded.push_back(std::move(event));
}

void
TraceWriter::recordWorkerLanes(
    const std::vector<ThreadPool::LaneSpan> &spans)
{
    if (spans.empty())
        return;
    beginScope("thread_pool");
    for (const ThreadPool::LaneSpan &span : spans)
        durationEvent("worker" + std::to_string(span.worker), "task",
                      span.startUs, span.endUs);
}

Cycles
TraceWriter::trackBusy(std::string_view track) const
{
    Cycles busy = 0;
    for (const Event &event : recorded)
        if (event.phase == 'X' && event.track == track)
            busy += event.dur;
    return busy;
}

void
TraceWriter::write(std::ostream &out) const
{
    // Assign one tid per (pid, track) pair, in first-seen order.
    std::map<std::pair<int, std::string>, int> tids;
    for (const Event &event : recorded) {
        if (event.phase != 'X')
            continue;
        const auto key = std::make_pair(event.pid, event.track);
        if (tids.find(key) == tids.end()) {
            const int tid = static_cast<int>(tids.size()) + 1;
            tids.emplace(key, tid);
        }
    }

    out << "{\n\"displayTimeUnit\": \"ms\",\n"
        << "\"otherData\": {\"generator\": \"copernicus TraceWriter\", "
           "\"timeUnit\": \"cycles (written as trace microseconds)\"},\n"
        << "\"traceEvents\": [";

    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ',';
        first = false;
        out << "\n";
    };

    for (std::size_t pid = 0; pid < scopeNames.size(); ++pid) {
        sep();
        out << "{\"ph\": \"M\", \"pid\": " << pid
            << ", \"name\": \"process_name\", \"args\": {\"name\": ";
        writeJsonString(out, scopeNames[pid]);
        out << "}}";
    }
    for (const auto &[key, tid] : tids) {
        sep();
        out << "{\"ph\": \"M\", \"pid\": " << key.first
            << ", \"tid\": " << tid
            << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
        writeJsonString(out, key.second);
        out << "}}";
    }

    for (const Event &event : recorded) {
        sep();
        if (event.phase == 'X') {
            const int tid = tids.at({event.pid, event.track});
            out << "{\"ph\": \"X\", \"pid\": " << event.pid
                << ", \"tid\": " << tid << ", \"name\": ";
            writeJsonString(out, event.name);
            out << ", \"cat\": \"stage\", \"ts\": " << event.ts
                << ", \"dur\": " << event.dur;
            if (!event.args.empty())
                out << ", \"args\": " << event.args;
            out << "}";
        } else {
            out << "{\"ph\": \"C\", \"pid\": " << event.pid
                << ", \"tid\": 0, \"name\": ";
            writeJsonString(out, event.name);
            out << ", \"ts\": " << event.ts
                << ", \"args\": {\"value\": ";
            writeJsonNumber(out, event.value);
            out << "}}";
        }
    }
    out << "\n]}\n";
}

void
TraceWriter::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(!out, "TraceWriter: cannot open '" + path + "'");
    write(out);
}

} // namespace copernicus
