#pragma once

// In-memory spans recorded by the benchmark's own code around its calls into
// each layer (the daemon's internals are not traced). Each recording thread
// owns one SpanBuffer, so recording takes no lock; ids carry the buffer
// index in their top bits so they are unique across buffers. Self time of a
// span = its duration minus the time its children cover.

#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace e2e {

enum class SpanName : std::uint8_t {
    kNodeTick,       ///< a node's schedule slot: due time -> end of sampleOnce
    kSampleOnce,     ///< pusher.sampleOnce, child of the tick
    kPublish,        ///< net.publish, child of sampleOnce
    kAck,            ///< net.ack, asynchronous: publish start -> PUBACK seen
    kRestSeriesCache,
    kRestSeriesStorage,
    kRestLatest,
    kRestStatus,
};

inline std::string_view spanLabel(SpanName name) {
    switch (name) {
        case SpanName::kNodeTick: return "node.tick";
        case SpanName::kSampleOnce: return "pusher.sampleOnce";
        case SpanName::kPublish: return "net.publish";
        case SpanName::kAck: return "net.ack";
        case SpanName::kRestSeriesCache: return "rest.series_cache";
        case SpanName::kRestSeriesStorage: return "rest.series_storage";
        case SpanName::kRestLatest: return "rest.latest";
        case SpanName::kRestStatus: return "rest.status";
    }
    return "?";
}

struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    SpanName name = SpanName::kNodeTick;
};

class SpanBuffer {
  public:
    explicit SpanBuffer(std::uint32_t index) : next_id_((index + 1) << 24) {}

    std::uint32_t nextId() { return ++next_id_; }

    void record(SpanName name, std::uint32_t id, std::uint32_t parent, std::int64_t start_ns,
                std::int64_t end_ns) {
        spans_.push_back(Span{start_ns, end_ns, id, parent, name});
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::uint32_t next_id_;
    std::vector<Span> spans_;
};

/// Writes `name,id,parent,start_ns,end_ns` lines for the spans that start in
/// [from_ns, to_ns).
inline void writeSpans(std::FILE* out, const std::vector<Span>& spans, std::int64_t from_ns,
                       std::int64_t to_ns) {
    for (const Span& span : spans) {
        if (span.start_ns < from_ns || span.start_ns >= to_ns) continue;
        const std::string_view label = spanLabel(span.name);
        std::fprintf(out, "%.*s,%u,%u,%lld,%lld\n", static_cast<int>(label.size()), label.data(),
                     span.id, span.parent, static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns));
    }
}

}  // namespace e2e
