#pragma once

// The system under test as a child process: spawns the real wintermuted on
// a generated config, learns its ports, samples its /proc counters and
// reaps it on every exit path (destructor, and PR_SET_PDEATHSIG should the
// load process itself die).

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

namespace e2e {

/// Process-wide counters of one pid, summed over its live threads where
/// /proc only offers per-thread numbers (context switches).
struct ProcSample {
    std::int64_t cpu_ns = 0;  ///< utime + stime, exited threads included
    std::int64_t rss_kb = 0;
    std::int64_t threads = 0;
    std::int64_t vcsw = 0;   ///< voluntary context switches (blocking)
    std::int64_t ivcsw = 0;  ///< involuntary ones (preemption)
    std::int64_t syscw = 0;  ///< write-family syscalls
    std::int64_t write_bytes = 0;  ///< bytes sent to the storage layer
};

ProcSample sampleProc(pid_t pid);

class DaemonProcess {
  public:
    /// Starts `binary --config <config> --port <free port>`, stderr appended
    /// to `log_path`, and waits until the transport listener reports its
    /// port (the REST server is up by then). nullptr + `error` on failure.
    static std::unique_ptr<DaemonProcess> spawn(const std::string& binary,
                                                const std::string& config_path,
                                                const std::string& log_path, int timeout_ms,
                                                std::string* error);
    ~DaemonProcess();

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /// SIGTERM, then SIGKILL after `grace_ms`; always reaps. Returns true
    /// when the daemon exited by itself with status 0.
    bool stop(int grace_ms = 5000);

    pid_t pid() const { return pid_; }
    std::uint16_t restPort() const { return rest_port_; }
    std::uint16_t transportPort() const { return transport_port_; }

  private:
    DaemonProcess() = default;

    pid_t pid_ = -1;
    int stdout_fd_ = -1;  ///< kept open: the daemon prints on shutdown
    std::uint16_t rest_port_ = 0;
    std::uint16_t transport_port_ = 0;
};

}  // namespace e2e
