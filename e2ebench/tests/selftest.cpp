// Unit tests of the benchmark's own reductions. run.py --self-test runs
// them, then a seconds-long smoke run of every workload.

#include <gtest/gtest.h>

#include <vector>

#include "ack_fifo.h"
#include "stats.h"
#include "tally.h"

namespace {

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
    EXPECT_FALSE(e2e::percentileSupported(999, 0.99));  // rank 990, 9 beyond
    EXPECT_TRUE(e2e::percentileSupported(1000, 0.99));  // rank 990, 10 beyond
    auto too_few = ramp(999);
    EXPECT_FALSE(e2e::percentile(too_few, 0.99).has_value());
    auto enough = ramp(1000);
    ASSERT_TRUE(e2e::percentile(enough, 0.99).has_value());
    EXPECT_DOUBLE_EQ(*e2e::percentile(enough, 0.99), 990.0);
}

TEST(PercentileRule, MedianNeedsOneSample) {
    std::vector<double> none;
    EXPECT_FALSE(e2e::percentile(none, 0.5).has_value());
    std::vector<double> one{7.0};
    EXPECT_DOUBLE_EQ(*e2e::percentile(one, 0.5), 7.0);
    auto odd = ramp(5);
    EXPECT_DOUBLE_EQ(*e2e::percentile(odd, 0.5), 3.0);
}

TEST(PercentileRule, HighestTailFallsBackWithSampleCount) {
    auto slow_stream = ramp(240);  // 20 req/s * 60 % * 20 s
    const auto tail = e2e::highestTail(slow_stream);
    ASSERT_TRUE(tail.has_value());
    EXPECT_DOUBLE_EQ(tail->q, 0.95);  // rank 228, 12 beyond; p99 has 2
    EXPECT_DOUBLE_EQ(tail->value, 228.0);
    auto tiny = ramp(3);
    EXPECT_DOUBLE_EQ(e2e::highestTail(tiny)->q, 0.5);
}

e2e::Pending due(std::int64_t t) {
    e2e::Pending p;
    p.due_ns = t;
    return p;
}

TEST(AckFifo, ResolvesInSendOrderByCumulativeCount) {
    e2e::AckFifo fifo;
    for (int t = 1; t <= 5; ++t) fifo.push(due(t));
    std::vector<std::int64_t> acked;
    auto record = [&](const e2e::Pending& p) { acked.push_back(p.due_ns); };
    EXPECT_EQ(fifo.resolve(2, record), 2u);
    EXPECT_EQ(fifo.resolve(2, record), 0u);  // a stale counter read
    EXPECT_EQ(fifo.resolve(4, record), 2u);
    EXPECT_EQ(acked, (std::vector<std::int64_t>{1, 2, 3, 4}));
    EXPECT_EQ(fifo.size(), 1u);
}

TEST(AckFifo, RefusedPublishIsTakenBack) {
    e2e::AckFifo fifo;
    fifo.push(due(1));
    fifo.push(due(2));
    fifo.popNewest();
    fifo.push(due(3));
    std::vector<std::int64_t> acked;
    fifo.resolve(2, [&](const e2e::Pending& p) { acked.push_back(p.due_ns); });
    EXPECT_EQ(acked, (std::vector<std::int64_t>{1, 3}));
}

TEST(AckFifo, ReconnectResolvesThenDropsTheOldWindow) {
    e2e::AckFifo fifo;
    for (int t = 1; t <= 4; ++t) fifo.push(due(t));
    std::vector<std::int64_t> acked;
    auto record = [&](const e2e::Pending& p) { acked.push_back(p.due_ns); };
    fifo.resolve(1, record);
    // The old connection acked one more before it died; 3 and 4 are lost
    // with it (the Pusher ring replays them as new publishes).
    EXPECT_EQ(fifo.reset(2, record), 2u);
    EXPECT_EQ(acked, (std::vector<std::int64_t>{1, 2}));
    EXPECT_EQ(fifo.size(), 0u);
    // messages_acked is cumulative across connections: the replays are the
    // next entries, acked from the counter value at the reset onwards.
    fifo.push(due(3));
    fifo.push(due(4));
    EXPECT_EQ(fifo.resolve(3, record), 1u);
    EXPECT_EQ(acked.back(), 3);
    EXPECT_EQ(fifo.resolve(4, record), 1u);
    EXPECT_EQ(acked.back(), 4);
}

TEST(WindowTally, UnackedReadingsCountAsLate) {
    const std::int64_t s = 1000000000;
    e2e::WindowTally tally(10 * s, 20 * s, s, 5 * s);
    tally.onAck(11 * s, 11 * s + 5000000);  // on time
    tally.onAck(12 * s, 13 * s);            // exactly one interval: on time
    tally.onAck(13 * s, 14 * s + 1);        // late
    tally.onAck(5 * s, 10 * s + 1);         // due before the window
    // Four readings were due in the window; the fourth was never acked.
    EXPECT_DOUBLE_EQ(tally.lateRatio(4), 0.5);
    EXPECT_EQ(tally.freshnessMs().size(), 3u);
    EXPECT_EQ(tally.ackedInWindow(), 4u);
    EXPECT_EQ(tally.ackedPerSlice(), (std::vector<std::uint64_t>{4, 0}));
    EXPECT_EQ(tally.freshnessPerSliceMs()[0].size(), 2u);  // on-time only
    EXPECT_DOUBLE_EQ(tally.lateRatio(0), 0.0);
}

}  // namespace
