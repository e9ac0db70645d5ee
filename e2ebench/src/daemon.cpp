#include "daemon.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2e {

namespace {

std::int64_t nowMs() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// An ephemeral port the kernel just handed out, for the daemon's REST
/// server (its port line is block-buffered on a pipe, so it cannot be read
/// back reliably).
std::uint16_t pickFreePort() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    std::uint16_t port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
        port = ntohs(addr.sin_port);
    }
    ::close(fd);
    return port;
}

std::int64_t statusField(const std::string& text, const char* key) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return 0;
    return std::strtoll(text.c_str() + at + std::strlen(key), nullptr, 10);
}

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace

ProcSample sampleProc(pid_t pid) {
    ProcSample sample;
    const std::string base = "/proc/" + std::to_string(pid);
    const std::string stat = readFile(base + "/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
        std::istringstream fields(stat.substr(close + 2));
        std::string field;
        long long utime = 0;
        long long stime = 0;
        for (int index = 3; fields >> field; ++index) {
            if (index == 14) utime = std::atoll(field.c_str());
            if (index == 15) {
                stime = std::atoll(field.c_str());
                break;
            }
        }
        const long ticks = ::sysconf(_SC_CLK_TCK);
        sample.cpu_ns = (utime + stime) * (1000000000LL / ticks);
    }
    const std::string status = readFile(base + "/status");
    sample.rss_kb = statusField(status, "VmRSS:");
    sample.threads = statusField(status, "Threads:");
    const std::string io = readFile(base + "/io");
    sample.syscw = statusField(io, "syscw:");
    sample.write_bytes = statusField(io, "\nwrite_bytes:");
    if (DIR* tasks = ::opendir((base + "/task").c_str())) {
        while (const dirent* entry = ::readdir(tasks)) {
            if (entry->d_name[0] == '.') continue;
            const std::string task = readFile(base + "/task/" + entry->d_name + "/status");
            sample.vcsw += statusField(task, "\nvoluntary_ctxt_switches:");
            sample.ivcsw += statusField(task, "nonvoluntary_ctxt_switches:");
        }
        ::closedir(tasks);
    }
    return sample;
}

std::unique_ptr<DaemonProcess> DaemonProcess::spawn(const std::string& binary,
                                                    const std::string& config_path,
                                                    const std::string& log_path, int timeout_ms,
                                                    std::string* error) {
    std::unique_ptr<DaemonProcess> daemon(new DaemonProcess());
    daemon->rest_port_ = pickFreePort();
    const std::string port = std::to_string(daemon->rest_port_);
    int pipe_fds[2];
    if (daemon->rest_port_ == 0 || ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
        *error = "cannot prepare the daemon's port or stdout pipe";
        return nullptr;
    }
    const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
        // Only async-signal-safe calls until exec.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(pipe_fds[1], STDOUT_FILENO);
        if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
        const char* argv[] = {binary.c_str(), "--config", config_path.c_str(), "--port",
                              port.c_str(), nullptr};
        ::execv(binary.c_str(), const_cast<char* const*>(argv));
        ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (pid < 0) {
        ::close(pipe_fds[0]);
        *error = "fork failed";
        return nullptr;
    }
    daemon->pid_ = pid;
    daemon->stdout_fd_ = pipe_fds[0];

    const char* marker = "transport on 127.0.0.1:";
    std::string output;
    const std::int64_t deadline = nowMs() + timeout_ms;
    while (daemon->transport_port_ == 0) {
        const std::int64_t left = deadline - nowMs();
        pollfd pfd{daemon->stdout_fd_, POLLIN, 0};
        if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
            *error = "wintermuted did not report its transport port in time";
            return nullptr;
        }
        char chunk[512];
        const ssize_t n = ::read(daemon->stdout_fd_, chunk, sizeof(chunk));
        if (n <= 0) {
            *error = "wintermuted exited during start-up (see " + log_path + ")";
            return nullptr;
        }
        output.append(chunk, static_cast<std::size_t>(n));
        const std::size_t at = output.find(marker);
        if (at != std::string::npos && output.find('\n', at) != std::string::npos) {
            daemon->transport_port_ =
                static_cast<std::uint16_t>(std::atoi(output.c_str() + at + std::strlen(marker)));
        }
    }
    return daemon;
}

bool DaemonProcess::stop(int grace_ms) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    const std::int64_t deadline = nowMs() + grace_ms;
    while (nowMs() < deadline) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            exited = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!exited) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

DaemonProcess::~DaemonProcess() { stop(); }

}  // namespace e2e
