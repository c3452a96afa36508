#include "trace/trace_sink.hh"

namespace copernicus {

TraceSink::~TraceSink() = default;

namespace {

TraceSink *globalSink = nullptr;

/** Discards everything; only its address matters (see noTraceSink). */
class NoTraceSink final : public TraceSink
{
  public:
    void
    durationEvent(std::string_view, std::string_view, Cycles,
                  Cycles) override
    {
    }

    void counterEvent(std::string_view, Cycles, double) override {}
};

} // namespace

TraceSink *
activeTraceSink()
{
    return globalSink;
}

void
setActiveTraceSink(TraceSink *sink)
{
    globalSink = sink;
}

TraceSink &
noTraceSink()
{
    static NoTraceSink sink;
    return sink;
}

TraceSink *
resolveTraceSink(TraceSink *sink)
{
    TraceSink *resolved = sink != nullptr ? sink : activeTraceSink();
    return resolved == &noTraceSink() ? nullptr : resolved;
}

} // namespace copernicus
