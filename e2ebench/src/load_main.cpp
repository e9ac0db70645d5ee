// e2e_load — the load process of the end-to-end benchmark (README.md).
//
// It starts the real wintermuted as a child (transport listener, zero local
// nodes), then plays the node side of a CooLMUC-3-shaped cluster into it
// over the wire: one pusher::Pusher per simulated node, never start()ed;
// two driver threads call Pusher::sampleOnce(due) on an open-loop schedule
// whose per-node phase is n * interval / N, publishing through two
// net::Connections; one REST client thread issues an open-loop query
// stream plus a 1 Hz /status poll, one request at a time. Everything is
// timed from outside the daemon: readings from their due time to the
// PUBACK that covers them, requests from their due time to completion, the
// daemon's CPU, memory and syscalls from /proc/<pid>.
//
//   e2e_load --daemon PATH --workdir DIR --workload NAME --seed N
//            --seconds S [--trace] [--smoke]
//
// Prints one JSON object on stdout: every metric under its BENCHMARK.json
// name with its sample count, the validity flags, the correctness failures
// and the attempted/failed counts. run.py picks the metrics of the run's
// mode and prints the result line.

#include <pthread.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ack_fifo.h"
#include "common/logging.h"
#include "common/time_utils.h"
#include "daemon.h"
#include "net/connection.h"
#include "pusher/plugins/perfsim_group.h"
#include "pusher/plugins/procfssim_group.h"
#include "pusher/plugins/sysfssim_group.h"
#include "pusher/pusher.h"
#include "rest/http_server.h"
#include "simulator/topology.h"
#include "stats.h"
#include "tally.h"
#include "trace.h"

using namespace wm;
using common::kNsPerMs;
using common::kNsPerSec;

namespace {

constexpr int kLanes = 2;  ///< driver threads = wire connections
constexpr int kSetups = 9;  ///< daemon start-ups per run; setup_s is their median
constexpr std::int64_t kSliceNs = common::kNsPerSec;  ///< window sampling period

struct Workload {
    std::string name;
    std::int64_t interval_ns;
    std::size_t max_inflight;  ///< client window (net::ConnectionConfig)
    bool durable;
    double rest_per_s;  ///< query stream rate, besides the 1 Hz /status poll
    bool sustainable;   ///< offered below saturation: delivered must match it
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"wire-paper", kNsPerSec, 256, false, 20.0, false},
        {"durable-paper", 4 * kNsPerSec, 1024, true, 20.0, true},
        {"query-mix", kNsPerSec, 1024, false, 300.0, true},
    };
    return all;
}

struct Options {
    std::string daemon;
    std::string workdir;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
};

std::int64_t steadyNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Sleeps until wall-clock time `t_ns` (the clock Reading timestamps use).
void sleepUntil(std::int64_t t_ns) {
    timespec ts{static_cast<time_t>(t_ns / kNsPerSec), static_cast<long>(t_ns % kNsPerSec)};
    while (clock_nanosleep(CLOCK_REALTIME, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::int64_t threadCpuNs(pthread_t thread) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(thread, &clock) != 0 || clock_gettime(clock, &ts) != 0) return 0;
    return static_cast<std::int64_t>(ts.tv_sec) * kNsPerSec + ts.tv_nsec;
}

std::int64_t processCpuNs() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * kNsPerSec + ts.tv_nsec;
}

/// First number after `"key":` in a flat JSON text (the /status body).
double jsonNumber(const std::string& body, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = body.find(needle);
    if (at == std::string::npos) return 0.0;
    return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

/// The daemon prints values with default ostream formatting; so must the
/// oracle when comparing.
std::string formatValue(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

thread_local e2e::SpanBuffer* t_spans = nullptr;
thread_local std::uint32_t t_parent = 0;

// ---------------------------------------------------------------------------
// One wire connection and the nodes publishing through it.

class Lane final : public mqtt::Broker {
  public:
    explicit Lane(const std::unordered_map<std::string, std::int32_t>& probes)
        : probes_(probes) {}

    void connect(net::ConnectionConfig config) {
        connection_ = std::make_unique<net::Connection>(std::move(config), [this] { onConnected(); });
        remote_ = std::make_unique<net::RemoteBroker>(*connection_);
        connection_->start();
    }

    /// The broker the lane's Pushers publish to: records the publish in the
    /// ack FIFO, then hands it to the wire through net::RemoteBroker.
    int publish(const mqtt::Message& message) override {
        std::lock_guard lock(publish_mutex_);
        attempts_.fetch_add(1, std::memory_order_relaxed);
        e2e::Pending entry;
        entry.due_ns = message.readings.front().timestamp;
        entry.value = message.readings.front().value;
        const auto probe = probes_.find(message.topic);
        if (probe != probes_.end()) entry.probe = probe->second;
        e2e::SpanBuffer* spans = t_spans;
        if (spans != nullptr) {
            entry.publish_ns = common::nowNs();
            entry.span = spans->nextId();
        }
        fifo_.push(entry);
        const int sent = remote_->publish(message);
        if (spans != nullptr) {
            spans->record(e2e::SpanName::kPublish, entry.span, t_parent, entry.publish_ns,
                          common::nowNs());
        }
        if (sent < 0) {
            fifo_.popNewest();
            refused_.fetch_add(1, std::memory_order_relaxed);
        }
        return sent;
    }

    template <typename OnAck>
    void resolveAcks(OnAck&& on_ack) {
        fifo_.resolve(connection_->counters().messages_acked, on_ack);
    }

    /// Set by the ack watcher before the first connection can drop.
    std::function<void(const e2e::Pending&)> on_ack;

    net::Connection& connection() { return *connection_; }
    void stop() {
        if (connection_) connection_->stop();
    }

    std::vector<pusher::Pusher*> pushers;
    std::uint64_t attempts() const { return attempts_.load(); }
    std::uint64_t refused() const { return refused_.load(); }
    std::size_t pending() const { return fifo_.size(); }

  private:
    /// Runs on the connection's manager thread after each handshake: the
    /// old connection's unacked window is gone, the ring replay refills it.
    void onConnected() {
        fifo_.reset(connection_->counters().messages_acked, [this](const e2e::Pending& entry) {
            if (on_ack) on_ack(entry);
        });
        for (pusher::Pusher* p : pushers) p->replayRecent();
    }

    const std::unordered_map<std::string, std::int32_t>& probes_;
    std::unique_ptr<net::Connection> connection_;
    std::unique_ptr<net::RemoteBroker> remote_;
    std::mutex publish_mutex_;
    e2e::AckFifo fifo_;
    std::atomic<std::uint64_t> attempts_{0};
    std::atomic<std::uint64_t> refused_{0};
};

// ---------------------------------------------------------------------------

struct Sample {
    std::int64_t at_ns = 0;
    e2e::ProcSample server;
    std::int64_t node_cpu_ns = 0;
    std::uint64_t attempts = 0;
    std::uint64_t refused = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t buffered = 0;
    std::uint64_t dropped = 0;
};

struct RestRecord {
    e2e::SpanName kind;
    std::int64_t due_ns;
    std::int64_t start_ns;
    std::int64_t end_ns;
    bool ok;
};

struct StatusSnapshot {
    std::int64_t due_ns = 0;
    std::string body;
};

/// JSON text of a string. Quotes and backslashes become apostrophes, which
/// is all the topic paths and failure messages here need.
std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) out += (c == '"' || c == '\\') ? '\'' : c;
    return out + '"';
}

std::string number(double value) {
    std::ostringstream out;
    out << std::setprecision(12) << value;
    return out.str();
}

std::string list(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        out += quoted(items[i]);
    }
    return out + "]";
}

/// A JSON object, fields in the order they are added.
class Json {
  public:
    Json& field(const std::string& key, double value) { return raw(key, number(value)); }
    Json& field(const std::string& key, const std::string& value) { return raw(key, quoted(value)); }
    Json& raw(const std::string& key, const std::string& json) {
        if (!text_.empty()) text_ += ',';
        text_ += quoted(key);
        text_ += ':';
        text_ += json;
        return *this;
    }
    std::string str() const { return "{" + text_ + "}"; }

  private:
    std::string text_;
};

/// The metrics of one run under their BENCHMARK.json names, and the sample
/// count each timing rests on. A value that was not measured (no samples, a
/// percentile the count does not support, nothing delivered to divide by)
/// is left out, and run.py fails the run for it.
class Report {
  public:
    void set(const std::string& name, double value) {
        if (std::isfinite(value)) metrics_.field(name, value);
    }
    void count(const std::string& name, std::size_t n, const std::string& rank = "") {
        samples_.field(name, "n=" + std::to_string(n) + rank);
    }
    std::optional<double> percentile(const std::string& name, std::vector<double>& samples,
                                     double q) {
        count(name, samples.size());
        const auto value = e2e::percentile(samples, q);
        if (value) set(name, *value);
        return value;
    }
    /// The highest percentile the sample count supports (stats.h).
    void tail(const std::string& name, std::vector<double>& samples) {
        const auto tail = e2e::highestTail(samples);
        count(name, samples.size(), tail ? ", p" + std::to_string(std::lround(100 * tail->q)) : "");
        if (tail) set(name, tail->value);
    }
    const Json& metrics() const { return metrics_; }
    const Json& samples() const { return samples_; }

  private:
    Json metrics_;
    Json samples_;
};

/// The median, the mean of the two middle values for an even count.
double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    const auto mid = static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1) return values[static_cast<std::size_t>(mid)];
    return (*std::max_element(values.begin(), values.begin() + mid) + values[static_cast<std::size_t>(mid)]) / 2.0;
}

std::string writeConfig(const Options& options, const Workload& workload, int index,
                        std::string* persist_dir) {
    const std::string path = options.workdir + "/wintermuted-" + std::to_string(index) + ".cfg";
    std::ofstream out(path);
    out << "cluster {\n    racks 0\n    chassisPerRack 0\n    nodesPerChassis 0\n"
           "    cpusPerNode 0\n}\n"
           "facility {\n    enabled false\n}\n"
           "pusher {\n    cacheWindow 180s\n}\n"
           "transport {\n    listen true\n    port 0\n}\n"
           "collectagent {\n    filter \"#\"\n}\n";
    if (workload.durable) {
        // The shipped persistence defaults: snapshotEvery 4096, 10 s
        // checkpoints.
        *persist_dir = options.workdir + "/persist-" + std::to_string(index);
        ::mkdir(persist_dir->c_str(), 0755);
        out << "persistence {\n    directory \"" << *persist_dir << "\"\n}\n";
    }
    return path;
}

int run(const Options& options) {
    const Workload* found = nullptr;
    for (const auto& w : workloads()) {
        if (w.name == options.workload) found = &w;
    }
    if (found == nullptr) {
        std::fprintf(stderr, "e2e_load: unknown workload '%s'\n", options.workload.c_str());
        return 2;
    }
    const Workload& workload = *found;
    common::Logger::instance().setLevel(common::LogLevel::kWarning);

    const simulator::Topology topology =
        options.smoke ? simulator::Topology::tiny() : simulator::Topology::coolmuc3();
    const std::size_t node_count = topology.nodeCount();
    const std::int64_t interval = workload.interval_ns;

    // Probe topics for the oracle: one per node, chosen by the seed.
    std::mt19937_64 rng(mix(options.seed));
    std::unordered_map<std::string, std::int32_t> probe_index;
    std::vector<std::string> probe_topics;

    std::vector<std::unique_ptr<Lane>> lanes;
    for (int l = 0; l < kLanes; ++l) lanes.push_back(std::make_unique<Lane>(probe_index));

    // --- Set-up: start the daemon and connect, kSetups times. ------------
    std::vector<double> setup_s;
    std::unique_ptr<e2e::DaemonProcess> daemon;
    std::string persist_dir;
    for (int i = 0; i < kSetups; ++i) {
        const std::string config = writeConfig(options, workload, i, &persist_dir);
        std::string error;
        const std::int64_t t0 = steadyNs();
        daemon = e2e::DaemonProcess::spawn(options.daemon, config,
                                           options.workdir + "/wintermuted.log", 20000, &error);
        if (!daemon) {
            std::fprintf(stderr, "e2e_load: %s\n", error.c_str());
            return 1;
        }
        for (int l = 0; l < kLanes; ++l) {
            net::ConnectionConfig remote;  // wm_pusherd's remote{} defaults
            remote.port = daemon->transportPort();
            remote.client_name = "e2e-lane" + std::to_string(l);
            remote.epoch = static_cast<std::uint64_t>(common::nowNs());
            remote.max_inflight = workload.max_inflight;
            lanes[l]->connect(remote);
        }
        const std::int64_t give_up = t0 + 20 * kNsPerSec;
        for (int l = 0; l < kLanes; ++l) {
            while (!lanes[l]->connection().connected() && steadyNs() < give_up) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            if (!lanes[l]->connection().connected()) {
                std::fprintf(stderr, "e2e_load: connection %d never came up\n", l);
                return 1;
            }
        }
        setup_s.push_back(static_cast<double>(steadyNs() - t0) / 1e9);
        if (i + 1 < kSetups) {
            for (auto& lane : lanes) lane->stop();
            daemon->stop(0);  // nothing to keep: kill at once
        }
    }

    // --- The node side. ---------------------------------------------------
    common::RetryPolicy publish_retry;  // wm_pusherd's snappy retry cap
    publish_retry.initial_backoff_ns = 50 * kNsPerMs;
    publish_retry.max_backoff_ns = 500 * kNsPerMs;
    std::vector<std::shared_ptr<pusher::SimulatedNode>> nodes;
    std::vector<std::unique_ptr<pusher::Pusher>> pushers;
    std::vector<std::string> all_topics;
    for (std::size_t n = 0; n < node_count; ++n) {
        const std::string node_path = topology.nodePath(n);
        auto node = std::make_shared<pusher::SimulatedNode>(topology.cpus_per_node,
                                                            mix(options.seed * 1000003ULL + n));
        node->startApp(simulator::AppKind::kLammps);
        nodes.push_back(node);
        Lane& lane = *lanes[n % kLanes];
        pusher::PusherConfig config{node_path, 180 * kNsPerSec, 2};
        config.publish_buffer_max = 65536;
        config.publish_retry = publish_retry;
        auto p = std::make_unique<pusher::Pusher>(std::move(config), &lane);
        pusher::PerfsimGroupConfig perf;
        perf.node_path = node_path;
        perf.interval_ns = interval;
        p->addGroup(std::make_unique<pusher::PerfsimGroup>(perf, node));
        pusher::SysfssimGroupConfig sys;
        sys.node_path = node_path;
        sys.interval_ns = interval;
        p->addGroup(std::make_unique<pusher::SysfssimGroup>(sys, node));
        pusher::ProcfssimGroupConfig proc;
        proc.node_path = node_path;
        proc.interval_ns = interval;
        p->addGroup(std::make_unique<pusher::ProcfssimGroup>(proc, node));
        const std::vector<std::string> topics = p->cacheStore().topics();
        const std::string& probe = topics[rng() % topics.size()];
        probe_index.emplace(probe, static_cast<std::int32_t>(probe_topics.size()));
        probe_topics.push_back(probe);
        all_topics.insert(all_topics.end(), topics.begin(), topics.end());
        lane.pushers.push_back(p.get());
        pushers.push_back(std::move(p));
    }

    // --- The schedule. ----------------------------------------------------
    const std::int64_t warmup = interval + 2 * kNsPerSec;
    const std::int64_t window = static_cast<std::int64_t>(options.seconds * 1e9);
    const std::int64_t t_start = (common::nowNs() / kNsPerSec + 1) * kNsPerSec;
    const std::int64_t w0 = t_start + warmup;
    const std::int64_t w1 = w0 + window;
    // Readings due just before w1 get one interval to be acked on time.
    const std::int64_t t_end = w1 + interval + 200 * kNsPerMs;

    // A traced run traces every other slice of the window; the untraced
    // slices in between give the tracing overhead without a second run.
    auto traced = [&](std::int64_t t) {
        return options.trace && t >= w0 && t < w1 && ((t - w0) / kSliceNs) % 2 == 1;
    };
    std::vector<e2e::SpanBuffer> span_buffers;
    for (std::uint32_t b = 0; b < kLanes + 2; ++b) span_buffers.emplace_back(b);

    // --- Ack watcher: resolves PUBACKs to due times every ~100 us. --------
    e2e::WindowTally tally(w0, w1, interval, kSliceNs);
    std::vector<std::vector<std::pair<std::int64_t, double>>> probe_acked(probe_topics.size());
    std::mutex ack_mutex;  // the manager thread resolves too, on reconnect
    std::atomic<std::uint64_t> inflight_max{0};
    std::atomic<bool> watcher_stop{false};
    e2e::SpanBuffer& ack_spans = span_buffers[kLanes];
    auto on_ack = [&](const e2e::Pending& entry) {
        const std::int64_t now = common::nowNs();
        std::lock_guard lock(ack_mutex);
        tally.onAck(entry.due_ns, now);
        if (entry.probe >= 0) probe_acked[entry.probe].emplace_back(entry.due_ns, entry.value);
        if (entry.span != 0) {
            ack_spans.record(e2e::SpanName::kAck, ack_spans.nextId(), entry.span,
                             entry.publish_ns, now);
        }
    };
    for (auto& lane : lanes) lane->on_ack = on_ack;
    std::thread watcher([&] {
        while (!watcher_stop.load()) {
            for (auto& lane : lanes) {
                const auto wire = lane->connection().counters();
                if (wire.publishes_sent > wire.messages_acked) {
                    const std::uint64_t inflight = wire.publishes_sent - wire.messages_acked;
                    std::uint64_t seen = inflight_max.load();
                    while (inflight > seen && !inflight_max.compare_exchange_weak(seen, inflight)) {
                    }
                }
                lane->resolveAcks(on_ack);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        for (auto& lane : lanes) lane->resolveAcks(on_ack);
    });

    // --- Drivers: open loop, node n's phase is n * interval / N. ----------
    std::vector<std::vector<double>> lateness_ms(kLanes);
    std::vector<std::uint64_t> due_in_window(kLanes, 0);
    std::vector<std::uint64_t> due_traced(kLanes, 0);
    std::vector<std::thread> drivers;
    for (int d = 0; d < kLanes; ++d) {
        drivers.emplace_back([&, d] {
            for (std::int64_t tick = 0;; ++tick) {
                for (std::size_t n = d; n < node_count; n += kLanes) {
                    const std::int64_t due = t_start + tick * interval +
                                             static_cast<std::int64_t>(n) * interval /
                                                 static_cast<std::int64_t>(node_count);
                    if (due >= t_end) return;
                    sleepUntil(due);
                    e2e::SpanBuffer* spans = traced(due) ? &span_buffers[d] : nullptr;
                    t_spans = spans;
                    const std::int64_t start = common::nowNs();
                    lateness_ms[d].push_back(static_cast<double>(start - due) / 1e6);
                    pusher::Pusher& p = *pushers[n];
                    const std::uint64_t before = p.readingsSampled();
                    std::uint32_t tick_id = 0;
                    if (spans != nullptr) {
                        tick_id = spans->nextId();
                        t_parent = spans->nextId();
                    }
                    p.sampleOnce(due);
                    if (spans != nullptr) {
                        const std::int64_t end = common::nowNs();
                        spans->record(e2e::SpanName::kSampleOnce, t_parent, tick_id, start, end);
                        spans->record(e2e::SpanName::kNodeTick, tick_id, 0, due, end);
                    }
                    if (due >= w0 && due < w1) due_in_window[d] += p.readingsSampled() - before;
                    if (spans != nullptr) due_traced[d] += p.readingsSampled() - before;
                }
            }
        });
    }

    // --- REST client: open-loop queries + 1 Hz /status, one at a time. ----
    std::vector<RestRecord> rest_records;
    std::vector<StatusSnapshot> statuses;
    const std::uint16_t rest_port = daemon->restPort();
    std::thread rest_client([&] {
        e2e::SpanBuffer& spans = span_buffers[kLanes + 1];
        std::mt19937_64 query_rng(mix(options.seed ^ 0x5EED5EEDULL));
        std::uniform_real_distribution<double> uniform(0.0, 1.0);
        const double query_gap_ns = 1e9 / workload.rest_per_s;
        std::int64_t query_index = 0;
        std::int64_t status_index = 0;
        while (true) {
            const std::int64_t query_due =
                t_start + static_cast<std::int64_t>(static_cast<double>(query_index) * query_gap_ns);
            const std::int64_t status_due = t_start + status_index * kNsPerSec;
            const bool status = status_due <= query_due;
            const std::int64_t due = status ? status_due : query_due;
            if (status ? due > w1 : due >= w1) break;
            std::string target;
            e2e::SpanName kind = e2e::SpanName::kRestStatus;
            if (status) {
                target = "/status";
                ++status_index;
            } else {
                ++query_index;
                const double pick = uniform(query_rng);
                const std::string& topic = all_topics[query_rng() % all_topics.size()];
                if (pick < 0.6) {
                    kind = e2e::SpanName::kRestSeriesCache;
                    target = "/sensors/series?topic=" + topic + "&window=60s";
                } else if (pick < 0.9) {
                    kind = e2e::SpanName::kRestSeriesStorage;
                    target = "/sensors/series?topic=" + topic + "&window=600s";
                } else {
                    kind = e2e::SpanName::kRestLatest;
                    target = "/sensors/latest?topic=" + topic;
                }
            }
            sleepUntil(due);
            const std::int64_t start = common::nowNs();
            const rest::HttpResult result = rest::httpRequest("127.0.0.1", rest_port, "GET", target);
            const std::int64_t end = common::nowNs();
            // /sensors/latest answers 404 for a topic without data yet,
            // which only the warm-up can see.
            const bool ok = result.ok && (result.status == 200 ||
                                          (kind == e2e::SpanName::kRestLatest && due < w0 &&
                                           result.status == 404));
            rest_records.push_back({kind, due, start, end, ok});
            if (traced(due)) spans.record(kind, spans.nextId(), 0, start, end);
            if (status) statuses.push_back({due, result.body});
        }
    });

    // --- Window samples. --------------------------------------------------
    const pthread_t main_thread = pthread_self();
    auto take_sample = [&](std::int64_t at) {
        sleepUntil(at);
        Sample s;
        s.at_ns = common::nowNs();
        s.server = e2e::sampleProc(daemon->pid());
        // Node CPU: the load process minus the REST client, the ack watcher
        // and this sampling thread.
        s.node_cpu_ns = processCpuNs() - threadCpuNs(rest_client.native_handle()) -
                        threadCpuNs(watcher.native_handle()) - threadCpuNs(main_thread);
        for (auto& lane : lanes) {
            s.attempts += lane->attempts();
            s.refused += lane->refused();
            s.frames_out += lane->connection().counters().frames_out;
        }
        for (auto& p : pushers) {
            s.buffered += p->bufferedReadings();
            s.dropped += p->readingsDropped();
        }
        return s;
    };
    std::vector<Sample> samples;
    for (std::int64_t at = w0; at < w1; at += kSliceNs) samples.push_back(take_sample(at));
    samples.push_back(take_sample(w1));
    const Sample& s0 = samples.front();
    const Sample& s1 = samples.back();
    double snapshot_mb = 0.0;
    if (workload.durable) {
        struct stat st{};
        if (::stat((persist_dir + "/storage.snap").c_str(), &st) == 0) {
            snapshot_mb = static_cast<double>(st.st_size) / 1e6;
        }
    }
    for (auto& t : drivers) t.join();
    rest_client.join();

    // --- Drain: every sent message acked and resolved. --------------------
    const std::int64_t drain_deadline = steadyNs() + 10 * kNsPerSec;
    auto drained = [&] {
        for (auto& lane : lanes) {
            const auto wire = lane->connection().counters();
            if (wire.publishes_sent != wire.messages_acked || lane->pending() != 0) return false;
        }
        return true;
    };
    while (!drained() && steadyNs() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    watcher_stop.store(true);
    watcher.join();

    std::uint64_t acked_total = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t sent_total = 0;
    for (auto& lane : lanes) {
        const auto wire = lane->connection().counters();
        acked_total += wire.messages_acked;
        sent_total += wire.publishes_sent;
        reconnects += wire.reconnects;
    }

    // --- Oracle. ----------------------------------------------------------
    std::vector<std::string> failures;
    std::uint64_t oracle_checked = 0;
    std::uint64_t oracle_failed = 0;
    if (sent_total != acked_total) {
        failures.push_back(std::to_string(sent_total - acked_total) +
                           " publishes still unacked after the drain");
    }
    double received = 0.0;
    const std::int64_t status_deadline = steadyNs() + 10 * kNsPerSec;
    while (steadyNs() < status_deadline) {
        const auto result = rest::httpRequest("127.0.0.1", rest_port, "GET", "/status");
        received = result.ok ? jsonNumber(result.body, "messagesReceived") : 0.0;
        if (received >= static_cast<double>(acked_total)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const bool counts_match = reconnects == 0
                                  ? received == static_cast<double>(acked_total)
                                  : received >= static_cast<double>(acked_total);
    if (!counts_match) {
        std::ostringstream why;
        why << "/status messagesReceived " << std::setprecision(15) << received << " vs "
            << acked_total << " acked";
        failures.push_back(why.str());
    }
    for (std::size_t i = 0; i < probe_topics.size(); ++i) {
        std::map<std::int64_t, double> expected;
        for (const auto& [ts, value] : probe_acked[i]) expected[ts] = value;
        const auto result = rest::httpRequest(
            "127.0.0.1", rest_port, "GET", "/sensors/series?topic=" + probe_topics[i] + "&window=3600s",
            "", 10000);
        std::map<std::int64_t, std::vector<std::string>> stored;
        for (std::size_t at = result.body.find("{\"t\":"); at != std::string::npos;
             at = result.body.find("{\"t\":", at + 1)) {
            const std::int64_t ts = std::strtoll(result.body.c_str() + at + 5, nullptr, 10);
            const std::size_t v = result.body.find("\"v\":", at);
            const std::size_t v_end = result.body.find('}', v);
            if (v == std::string::npos || v_end == std::string::npos) break;
            stored[ts].push_back(result.body.substr(v + 4, v_end - v - 4));
        }
        for (const auto& [ts, value] : expected) {
            ++oracle_checked;
            const auto it = stored.find(ts);
            const bool once = it != stored.end() && it->second.size() == 1;
            if (!result.ok || result.status != 200 || !once || it->second[0] != formatValue(value)) {
                if (oracle_failed++ < 3) {
                    failures.push_back(probe_topics[i] + " @" + std::to_string(ts) + " expected " +
                                       formatValue(value) + " once, stored " +
                                       (it == stored.end() ? std::string("nothing")
                                                           : std::to_string(it->second.size()) +
                                                                 "x " + it->second[0]));
                }
            }
        }
    }
    if (oracle_checked == 0) failures.push_back("no acked probe readings to check");

    for (auto& lane : lanes) lane->stop();
    const bool clean_exit = daemon->stop(20000);
    if (!clean_exit) failures.push_back("wintermuted did not exit cleanly");
    daemon.reset();

    // --- Reduce. ----------------------------------------------------------
    // Every metric is computed here and emitted under its BENCHMARK.json
    // name; run.py picks the end-to-end or the per-layer ones.
    Report report;
    const double window_s = static_cast<double>(s1.at_ns - s0.at_ns) / 1e9;
    const double nominal_window_s = static_cast<double>(window) / 1e9;
    const double interval_ms = static_cast<double>(interval) / 1e6;
    const double delivered = static_cast<double>(tally.ackedInWindow());
    std::uint64_t due_total = 0;
    for (auto due : due_in_window) due_total += due;
    const double offered_rps = static_cast<double>(due_total) / nominal_window_s;
    const double dropped = static_cast<double>(s1.dropped - s0.dropped);

    // Delivery: freshness from due time to covering PUBACK.
    const double late_ratio = tally.lateRatio(due_total);
    report.set("delivered_rps", delivered / window_s);
    report.count("delivered_rps", due_total);
    report.set("ontime_ratio", 1.0 - late_ratio);
    report.count("ontime_ratio", due_total);
    report.set("delivery.late_ratio", late_ratio);
    report.set("delivery.loss_ratio", due_total ? dropped / static_cast<double>(due_total) : 0.0);
    std::vector<double>& freshness = tally.freshnessMs();
    // Freshness of on-time deliveries; the late ones are late_ratio's.
    std::vector<double> on_time;
    for (const double ms : freshness) {
        if (ms <= interval_ms) on_time.push_back(ms);
    }
    report.percentile("ontime_freshness_p50_ms", on_time, 0.5);
    report.percentile("ontime_freshness_p99_ms", on_time, 0.99);
    report.percentile("delivery.freshness_p50_ms", freshness, 0.5);
    report.percentile("delivery.freshness_p99_ms", freshness, 0.99);
    std::vector<double> lateness;
    for (auto& part : lateness_ms) lateness.insert(lateness.end(), part.begin(), part.end());
    report.tail("generator.late_p99_ms", lateness);
    report.percentile("setup_s", setup_s, 0.5);

    // CPU and the server process, from /proc.
    const double node_cpu = static_cast<double>(s1.node_cpu_ns - s0.node_cpu_ns) / 1e3;
    const double server_cpu = static_cast<double>(s1.server.cpu_ns - s0.server.cpu_ns) / 1e3;
    report.set("node_cpu_us_per_reading", node_cpu / delivered);
    report.set("server_cpu_us_per_reading", server_cpu / delivered);
    report.set("server_rss_mb", static_cast<double>(s1.server.rss_kb) / 1024.0);
    report.set("server.cpu_cores", server_cpu / 1e6 / window_s);
    report.set("server.threads", static_cast<double>(s1.server.threads));
    report.set("server.vcsw_per_reading", static_cast<double>(s1.server.vcsw - s0.server.vcsw) / delivered);
    report.set("server.ivcsw_per_reading",
               static_cast<double>(s1.server.ivcsw - s0.server.ivcsw) / delivered);
    report.set("server.syscw_per_reading",
               static_cast<double>(s1.server.syscw - s0.server.syscw) / delivered);
    report.set("persist.write_mb_per_s",
               static_cast<double>(s1.server.write_bytes - s0.server.write_bytes) / 1e6 / window_s);
    report.set("persist.snapshot_mb", snapshot_mb);

    // The node side: Pusher and wire client counters.
    const double attempts = static_cast<double>(s1.attempts - s0.attempts);
    report.set("pusher.refused_ratio",
               attempts > 0 ? static_cast<double>(s1.refused - s0.refused) / attempts : 0.0);
    report.set("pusher.backlog_end", static_cast<double>(s1.buffered));
    report.set("pusher.backlog_growth_rps",
               (static_cast<double>(s1.buffered) - static_cast<double>(s0.buffered)) / window_s);
    report.set("pusher.dropped", dropped);
    report.set("net.frames_per_reading", static_cast<double>(s1.frames_out - s0.frames_out) / delivered);
    report.set("net.inflight_max", static_cast<double>(inflight_max.load()));

    // Server-side counters: the /status polls due at w0 and w1.
    const StatusSnapshot* status0 = nullptr;
    const StatusSnapshot* status1 = nullptr;
    for (const auto& snap : statuses) {
        if (snap.due_ns == w0) status0 = &snap;
        if (snap.due_ns == w1) status1 = &snap;
    }
    if (status0 != nullptr && status1 != nullptr) {
        auto delta = [&](const char* key) {
            return jsonNumber(status1->body, key) - jsonNumber(status0->body, key);
        };
        auto last = [&](const char* key) { return jsonNumber(status1->body, key); };
        const double received_window = delta("messagesReceived");
        report.set("collectagent.msgs_per_s", received_window / (static_cast<double>(w1 - w0) / 1e9));
        report.set("net.server_frames_in_per_reading", delta("framesIn") / received_window);
        report.set("net.server_acks_per_reading", delta("framesOut") / received_window);
        report.set("persist.wal_records_per_reading", delta("walRecordsLogged") / received_window);
        report.set("persist.snapshots", delta("snapshotsWritten"));
        report.set("collectagent.dedup_drops", last("dedupDrops"));
        report.set("collectagent.quarantined", last("quarantined"));
        report.set("mqtt.broker_dropped", last("brokerDropped"));
        report.set("storage.readings", last("storedReadings"));
        report.set("storage.duplicate_drops", last("duplicateDrops"));
        report.set("storage.rejected", last("rejectedInserts"));
        report.set("storage.memory_mb", last("storageMemoryBytes") / 1e6);
    } else {
        failures.push_back("the /status polls at the window edges are missing");
    }

    // REST: latency from the due time and service time, per class, window
    // only.
    std::map<e2e::SpanName, std::vector<double>> latency;
    std::map<e2e::SpanName, std::vector<double>> service;
    std::uint64_t rest_attempted = 0;
    std::uint64_t rest_failed = 0;
    for (const auto& r : rest_records) {
        if (r.due_ns < w0 || r.due_ns >= w1) continue;
        ++rest_attempted;
        if (!r.ok) {
            ++rest_failed;
            continue;
        }
        latency[r.kind].push_back(static_cast<double>(r.end_ns - r.due_ns) / 1e6);
        service[r.kind].push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
    report.set("rest.requests_per_s", static_cast<double>(rest_attempted) / nominal_window_s);
    report.set("rest.error_ratio", rest_attempted ? static_cast<double>(rest_failed) /
                                                        static_cast<double>(rest_attempted)
                                                  : 0.0);
    const auto status_p50 =
        report.percentile("status_p50_ms", latency[e2e::SpanName::kRestStatus], 0.5);
    report.percentile("rest_query_p50_ms", latency[e2e::SpanName::kRestSeriesCache], 0.5);
    report.percentile("rest_fallback_p50_ms", latency[e2e::SpanName::kRestSeriesStorage], 0.5);
    report.tail("rest.query_tail_ms", latency[e2e::SpanName::kRestSeriesCache]);
    report.tail("rest.fallback_tail_ms", latency[e2e::SpanName::kRestSeriesStorage]);
    report.percentile("rest.series_cache_ms", service[e2e::SpanName::kRestSeriesCache], 0.5);
    report.percentile("rest.series_storage_ms", service[e2e::SpanName::kRestSeriesStorage], 0.5);
    report.percentile("rest.latest_ms", service[e2e::SpanName::kRestLatest], 0.5);
    if (status1 != nullptr && status_p50) {
        report.set("storage.status_ms_per_ktopic",
                   *status_p50 / (jsonNumber(status1->body, "sensors") / 1000.0));
    }

    // Per-slice values: the stationarity check, and the tracing overhead
    // (a traced run traces the odd slices only).
    const auto& acked_slices = tally.ackedPerSlice();
    std::vector<double> slice_delivered;
    std::vector<double> slice_node_cpu;
    std::vector<double> slice_server_cpu;
    std::vector<double> slice_freshness;
    for (std::size_t k = 0; k + 1 < samples.size(); ++k) {
        const double acked = static_cast<double>(std::max<std::uint64_t>(acked_slices[k], 1));
        slice_delivered.push_back(static_cast<double>(acked_slices[k]) * 1e9 /
                                  static_cast<double>(samples[k + 1].at_ns - samples[k].at_ns));
        slice_node_cpu.push_back(
            static_cast<double>(samples[k + 1].node_cpu_ns - samples[k].node_cpu_ns) / 1e3 / acked);
        slice_server_cpu.push_back(
            static_cast<double>(samples[k + 1].server.cpu_ns - samples[k].server.cpu_ns) / 1e3 /
            acked);
        slice_freshness.push_back(
            e2e::percentile(tally.freshnessPerSliceMs()[k], 0.5).value_or(0.0));
    }
    auto every_other = [](const std::vector<double>& values, std::size_t from) {
        std::vector<double> out;
        for (std::size_t k = from; k < values.size(); k += 2) out.push_back(values[k]);
        return out;
    };

    // Validity: reasons this run does not measure what it claims to.
    std::vector<std::string> flags;
    auto describe = [](double value) {
        std::ostringstream out;
        out << std::setprecision(4) << value;
        return out.str();
    };
    if (const auto tail = e2e::highestTail(lateness); tail && tail->value > interval_ms / 10.0) {
        flags.push_back("the generator ran late by " + describe(tail->value) + " ms (p" +
                        std::to_string(std::lround(100 * tail->q)) +
                        "), so the run measures the generator");
    }
    if (workload.sustainable && delivered / window_s < 0.99 * offered_rps) {
        flags.push_back("delivered " + describe(delivered / window_s) + "/s below the offered " +
                        describe(offered_rps) + "/s on a workload chosen to be sustainable");
    }
    const std::tuple<const char*, const std::vector<double>*, double> halves[] = {
        {"delivered_rps", &slice_delivered, 0.05},
        {"server_cpu_us_per_reading", &slice_server_cpu, 0.35}};
    for (const auto& [name, values, limit] : halves) {
        const auto half = static_cast<std::ptrdiff_t>(values->size() / 2);
        if (half == 0) continue;
        const double first = median({values->begin(), values->begin() + half});
        const double second = median({values->begin() + half, values->end()});
        if (first > 0 && std::abs(second - first) / first > limit) {
            flags.push_back(std::string(name) + " moved from " + describe(first) + " to " +
                            describe(second) +
                            " between the window's halves: the regime is not stationary");
        }
    }
    if (reconnects != 0) flags.push_back(std::to_string(reconnects) + " wire reconnects");

    Json run_info;
    run_info.field("workload", workload.name)
        .field("seed", static_cast<double>(options.seed))
        .field("nodes", static_cast<double>(node_count))
        .field("topics", static_cast<double>(all_topics.size()))
        .field("interval_s", static_cast<double>(interval) / 1e9)
        .field("window_s", window_s)
        .field("offered_rps", offered_rps)
        .field("acked_total", static_cast<double>(acked_total))
        .field("reconnects", static_cast<double>(reconnects))
        .field("oracle_checked", static_cast<double>(oracle_checked))
        .field("oracle_failed", static_cast<double>(oracle_failed));
#if defined(WM_LOCK_ORDER_CHECK)
    run_info.field("WM_LOCK_ORDER_CHECK", 1.0);
#else
    run_info.field("WM_LOCK_ORDER_CHECK", 0.0);
#endif
#if defined(WM_SCHED_CHECK)
    run_info.field("WM_SCHED_CHECK", 1.0);
#else
    run_info.field("WM_SCHED_CHECK", 0.0);
#endif

    // Per-layer self times from the spans (traced runs only).
    if (options.trace) {
        double sample_self_ns = 0;
        double publish_ns = 0;
        double publishes = 0;
        std::unordered_map<std::uint32_t, double> child_ns;
        for (int d = 0; d < kLanes; ++d) {
            for (const auto& span : span_buffers[d].spans()) {
                if (span.name != e2e::SpanName::kPublish || span.start_ns < w0 || span.start_ns >= w1)
                    continue;
                publish_ns += static_cast<double>(span.end_ns - span.start_ns);
                ++publishes;
                child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
            }
        }
        for (int d = 0; d < kLanes; ++d) {
            for (const auto& span : span_buffers[d].spans()) {
                if (span.name != e2e::SpanName::kSampleOnce || span.start_ns < w0 ||
                    span.start_ns >= w1)
                    continue;
                sample_self_ns += static_cast<double>(span.end_ns - span.start_ns) - child_ns[span.id];
            }
        }
        std::vector<double> rtt;
        for (const auto& span : ack_spans.spans()) {
            if (span.start_ns >= w0 && span.start_ns < w1) {
                rtt.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
            }
        }
        std::uint64_t traced_readings = 0;
        for (auto due : due_traced) traced_readings += due;
        report.set("pusher.sample_us_per_reading",
                   traced_readings > 0 ? sample_self_ns / 1e3 / static_cast<double>(traced_readings)
                                       : 0.0);
        report.set("pusher.publish_us_per_call", publishes > 0 ? publish_ns / 1e3 / publishes : 0.0);
        report.percentile("net.ack_rtt_p50_ms", rtt, 0.5);
        report.tail("net.ack_rtt_p99_ms", rtt);
        if (slice_node_cpu.size() >= 2) {
            report.set("trace.overhead_node_cpu_us_per_reading",
                       median(every_other(slice_node_cpu, 1)) - median(every_other(slice_node_cpu, 0)));
            report.set("trace.overhead_freshness_p50_ms", median(every_other(slice_freshness, 1)) -
                                                              median(every_other(slice_freshness, 0)));
        }
        // The file holds the first traced slice; the numbers above cover
        // every traced slice.
        const std::string path = options.workdir + "/trace.csv";
        if (std::FILE* file = std::fopen(path.c_str(), "w")) {
            std::fputs("name,id,parent,start_ns,end_ns\n", file);
            for (const auto& buffer : span_buffers) {
                e2e::writeSpans(file, buffer.spans(), w0 + kSliceNs, w0 + 2 * kSliceNs);
            }
            std::fclose(file);
            run_info.field("trace_file", path);
        }
    }

    // attempted: readings due in the window plus REST requests; failed:
    // readings the Pushers dropped, failed REST requests, oracle mismatches.
    Json out;
    out.raw("run", run_info.str())
        .field("attempted", static_cast<double>(due_total + rest_attempted))
        .field("failed", dropped + static_cast<double>(rest_failed + oracle_failed))
        .raw("failures", list(failures))
        .raw("validity_flags", list(flags))
        .raw("metrics", report.metrics().str())
        .raw("samples", report.samples().str());
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "e2e_load: refusing to measure a sanitizer build\n");
    return 2;
#endif
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--daemon" && has_value) {
            options.daemon = argv[++i];
        } else if (arg == "--workdir" && has_value) {
            options.workdir = argv[++i];
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s --daemon PATH --workdir DIR --workload NAME --seed N "
                         "--seconds S [--trace] [--smoke]\n",
                         argv[0]);
            return 2;
        }
    }
    if (options.daemon.empty() || options.workdir.empty() || options.seconds <= 0) {
        std::fprintf(stderr, "e2e_load: --daemon, --workdir and --seconds > 0 are required\n");
        return 2;
    }
    return run(options);
}
