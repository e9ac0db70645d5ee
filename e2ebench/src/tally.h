#pragma once

// What the ack watcher learns about each acked reading, reduced to the
// end-to-end delivery metrics of one measurement window [w0, w1):
//   freshness  = ack time - due time, for readings due in the window;
//   late_ratio = share of readings due in the window NOT acked within one
//                sampling interval — a reading never acked counts as late;
//   delivered  = acks that arrived inside the window.
// Acks and on-time freshness are also kept per slice of the window, so a
// drifting rate can be told from a steady one and traced slices from
// untraced ones.

#include <cstdint>
#include <vector>

namespace e2e {

class WindowTally {
  public:
    WindowTally(std::int64_t w0_ns, std::int64_t w1_ns, std::int64_t interval_ns,
                std::int64_t slice_ns)
        : w0_(w0_ns),
          w1_(w1_ns),
          interval_(interval_ns),
          slice_(slice_ns),
          acked_((w1_ns - w0_ns + slice_ns - 1) / slice_ns, 0),
          slice_freshness_ms_(acked_.size()) {}

    void onAck(std::int64_t due_ns, std::int64_t ack_ns) {
        if (due_ns >= w0_ && due_ns < w1_) {
            const double ms = static_cast<double>(ack_ns - due_ns) / 1e6;
            freshness_ms_.push_back(ms);
            if (ack_ns - due_ns <= interval_) {
                ++on_time_;
                slice_freshness_ms_[static_cast<std::size_t>((due_ns - w0_) / slice_)].push_back(ms);
            }
        }
        if (ack_ns >= w0_ && ack_ns < w1_) ++acked_[static_cast<std::size_t>((ack_ns - w0_) / slice_)];
    }

    /// `due_in_window` counts every reading sampled for a slot in the
    /// window, acked or not.
    double lateRatio(std::uint64_t due_in_window) const {
        if (due_in_window == 0) return 0.0;
        const std::uint64_t on_time = on_time_ < due_in_window ? on_time_ : due_in_window;
        return 1.0 - static_cast<double>(on_time) / static_cast<double>(due_in_window);
    }

    std::vector<double>& freshnessMs() { return freshness_ms_; }
    std::uint64_t onTime() const { return on_time_; }
    std::uint64_t ackedInWindow() const {
        std::uint64_t total = 0;
        for (const std::uint64_t acked : acked_) total += acked;
        return total;
    }
    /// Acks per slice [w0 + k * slice, w0 + (k + 1) * slice).
    const std::vector<std::uint64_t>& ackedPerSlice() const { return acked_; }
    /// Freshness of the on-time readings due in each slice.
    std::vector<std::vector<double>>& freshnessPerSliceMs() { return slice_freshness_ms_; }

  private:
    std::int64_t w0_;
    std::int64_t w1_;
    std::int64_t interval_;
    std::int64_t slice_;
    std::vector<std::uint64_t> acked_;
    std::vector<std::vector<double>> slice_freshness_ms_;
    std::vector<double> freshness_ms_;
    std::uint64_t on_time_ = 0;
};

}  // namespace e2e
