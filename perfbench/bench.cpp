#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
HostSpeed::sample()
{
    static std::vector<std::uint32_t> table(1u << 18); // 1 MiB
    static volatile std::uint64_t sink = 0;
    const Clock::time_point start = Clock::now();
    std::vector<double> passes;
    for (int pass = 0; pass < 5; ++pass) {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 200000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::size_t at = (x >> 40) & (table.size() - 1);
            table[at] += static_cast<std::uint32_t>(x);
            if (table[at] & 1u)
                x ^= table[(at * 7) & (table.size() - 1)];
        }
        sink = sink + x;
        passes.push_back(msSince(t0));
    }
    ms.push_back(median(passes));
    spent += secondsSince(start);
}

double
HostSpeed::factor() const
{
    return ms.empty() ? 1.0 : median(ms) / kReferenceMs;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = {value, unit};
}

void
Result::fail(const std::string &reason)
{
    correct = false;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(reason);
}

void
Result::count(bool ok, const std::string &reason)
{
    ++attempted;
    if (!ok)
        fail(reason);
}

void
Result::timing(const std::string &name, double raw_value,
               const std::string &unit, const HostSpeed &host)
{
    raw[name] = raw_value;
    metric(name, raw_value / host.factor(), unit);
}

void
Result::rate(const std::string &name, double raw_value,
             const std::string &unit, const HostSpeed &host)
{
    raw[name] = raw_value;
    metric(name, raw_value * host.factor(), unit);
}

void
Result::hostSpeed(const HostSpeed &host)
{
    std::ostringstream out;
    out.precision(6);
    out << "{\"factor\":" << host.factor() << ",\"reference_ms\":"
        << HostSpeed::kReferenceMs << ",\"samples\":" << host.samples()
        << ",\"probe_s\":" << host.seconds() << "}";
    details["host"] = out.str();
}

void
Result::latency(const std::string &prefix, const LatencyClass &cls,
                const HostSpeed &host)
{
    timing(prefix + "p50_ms", median(cls.ms), "ms", host);
    timing(prefix + "tail_ms", quantile(cls.ms, cls.tailQuantile), "ms",
           host);
    std::ostringstream detail;
    detail << "{\"class\":" << jsonString(cls.what)
           << ",\"percentile\":" << cls.tailQuantile * 100.0
           << ",\"samples\":" << cls.ms.size() << ",\"beyond_tail\":"
           << static_cast<double>(cls.ms.size()) * (1.0 - cls.tailQuantile)
           << ",\"raw_p90_p95_p99_ms\":[" << quantile(cls.ms, 0.90) << ","
           << quantile(cls.ms, 0.95) << "," << quantile(cls.ms, 0.99)
           << "]}";
    details[prefix + "tail_ms"] = detail.str();
}

void
Result::cycle(const std::vector<std::string> &labels)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a
    for (const std::string &label : labels)
        for (const char c : label + '|')
            hash = (hash ^ static_cast<unsigned char>(c)) *
                   0x100000001b3ULL;
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(hash));
    details["cycle"] = buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
Result::toJson() const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, entry] : metrics) {
        out << (first ? "" : ",") << jsonString(name)
            << ":{\"value\":" << entry.first
            << ",\"unit\":" << jsonString(entry.second) << "}";
        first = false;
    }
    out << "},\"details\":{";
    first = true;
    for (const auto &[key, value] : details) {
        out << (first ? "" : ",") << jsonString(key) << ":" << value;
        first = false;
    }
    out << (first ? "" : ",") << "\"raw\":{";
    first = true;
    for (const auto &[name, value] : raw) {
        out << (first ? "" : ",") << jsonString(name) << ":" << value;
        first = false;
    }
    out << "}";
    out << "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        out << (i ? "," : "") << jsonString(failures[i]);
    out << "]}";
    return out.str();
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

namespace
{

int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local const int tag = next.fetch_add(1);
    return tag;
}

} // namespace

int
Tracer::begin(const std::string &name, int parent, std::int64_t op)
{
    const std::int64_t now = nowNs();
    const int tid = threadTag();
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(Span{name, now, now, parent, op, tid});
    return static_cast<int>(spans.size() - 1);
}

void
Tracer::end(int span)
{
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans[static_cast<std::size_t>(span)].endNs = now;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mu);
    // Children of one parent never overlap except across threads, where
    // their union is what the parent waited on; merge intervals per
    // parent so parallel children are not subtracted twice.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.startNs, span.endNs});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t curStart = 0;
        std::int64_t curEnd = -1;
        for (const auto &[s, e] : kids) {
            const std::int64_t cs = std::max(s, spans[i].startNs);
            const std::int64_t ce = std::min(e, spans[i].endNs);
            if (ce <= cs)
                continue;
            if (cs > curEnd) {
                if (curEnd > curStart)
                    covered += curEnd - curStart;
                curStart = cs;
                curEnd = ce;
            } else {
                curEnd = std::max(curEnd, ce);
            }
        }
        if (curEnd > curStart)
            covered += curEnd - curStart;
        self[spans[i].name] +=
            static_cast<double>(spans[i].endNs - spans[i].startNs -
                                covered) *
            1e-9;
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                      "\"op\":%lld}}",
                      span.tid, static_cast<double>(span.startNs) / 1e3,
                      static_cast<double>(span.endNs - span.startNs) / 1e3,
                      i, span.parent, static_cast<long long>(span.op));
        out << (i ? ",\n" : "") << "{\"name\":" << jsonString(span.name)
            << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer *tracer, const std::string &name, int parent,
                       std::int64_t op)
    : tracer(tracer)
{
    if (tracer != nullptr)
        index = tracer->begin(name, parent, op);
}

ScopedSpan::~ScopedSpan()
{
    if (tracer != nullptr)
        tracer->end(index);
}

pid_t
spawnProcess(const std::vector<std::string> &args,
             const std::string &log_path)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::close(log);
    }
    std::vector<std::string> copy = args;
    std::vector<char *> argv;
    for (std::string &arg : copy)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(copy[0].c_str(), argv.data());
    std::_Exit(127);
}

namespace
{

int
connectOnce(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        ::close(fd);
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

int
awaitSocket(const std::string &path, double timeout_s)
{
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < timeout_s) {
        const int fd = connectOnce(path);
        if (fd >= 0)
            return fd;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return -1;
}

Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

std::string
Connection::roundtrip(const std::string &line)
{
    if (fd < 0)
        return {};
    const std::string framed = line + '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
        const ssize_t n = ::send(fd, framed.data() + written,
                                 framed.size() - written, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return {};
        written += static_cast<std::size_t>(n);
    }
    while (true) {
        const std::size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
            std::string response = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            return response;
        }
        char chunk[65536];
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return {};
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

bool
reap(pid_t pid, double timeout_s)
{
    if (pid <= 0)
        return false;
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (secondsSince(start) < timeout_s) {
        const pid_t got = ::waitpid(pid, &status, WNOHANG);
        if (got == pid)
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (got < 0)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return false;
}

} // namespace perfbench
