#pragma once

// Resolves PUBACKs to the readings they cover without touching the client
// library: a net::Connection acks in send order and counts every acked
// message in ConnectionCounters::messages_acked, so the k-th increment of
// that counter acks the k-th publish still waiting in this FIFO. On a
// reconnect the Connection forgets its unacked window (those messages are
// replayed from the Pusher ring), so the FIFO is reset against the counter
// value at that moment.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

namespace e2e {

struct Pending {
    std::int64_t due_ns = 0;      ///< the reading's timestamp = its schedule slot
    std::int64_t publish_ns = 0;  ///< when the publish call began (traced runs)
    double value = 0.0;
    std::int32_t probe = -1;      ///< probe-topic index, or -1
    std::uint32_t span = 0;       ///< net.publish span id (traced runs)
};

class AckFifo {
  public:
    /// Appends a publish about to be written to the wire. Call before the
    /// write, or an ack could be counted before its entry exists.
    void push(const Pending& entry) {
        std::lock_guard lock(mutex_);
        entries_.push_back(entry);
    }

    /// Takes back the newest entry after its write was refused.
    void popNewest() {
        std::lock_guard lock(mutex_);
        if (!entries_.empty()) entries_.pop_back();
    }

    /// Resolves entries up to the connection's cumulative `messages_acked`,
    /// calling on_ack(entry) for each, oldest first. Returns how many.
    template <typename OnAck>
    std::size_t resolve(std::uint64_t messages_acked, OnAck&& on_ack) {
        std::lock_guard lock(mutex_);
        std::size_t resolved = 0;
        while (seen_ < messages_acked && !entries_.empty()) {
            on_ack(entries_.front());
            entries_.pop_front();
            ++seen_;
            ++resolved;
        }
        return resolved;
    }

    /// A new connection was established: resolves what the old one acked,
    /// then drops the rest, which the old connection can no longer ack.
    /// Returns the dropped count.
    template <typename OnAck>
    std::size_t reset(std::uint64_t messages_acked, OnAck&& on_ack) {
        resolve(messages_acked, on_ack);
        std::lock_guard lock(mutex_);
        const std::size_t dropped = entries_.size();
        entries_.clear();
        seen_ = messages_acked;
        return dropped;
    }

    std::size_t size() const {
        std::lock_guard lock(mutex_);
        return entries_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::deque<Pending> entries_;
    std::uint64_t seen_ = 0;
};

}  // namespace e2e
