#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/**
 * @file
 * Shared pieces of the perfbench binary: the seeded op-cycle generator,
 * latency classes with a fixed tail percentile, the result document
 * every workload fills, the in-memory span tracer, and the process and
 * Unix-socket helpers the serve and fleet workloads use.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);
double msSince(Clock::time_point start);

/** splitmix64: the only source of randomness, seeded from --seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[next() % i]);
    }

  private:
    std::uint64_t state;
};

/**
 * Host-speed probe. The shared hosts this runs on drift by 30-50% for
 * minutes at a time, which no statistic within one run can remove. A
 * fixed kernel owned by the benchmark (integer and memory work sharing
 * no code with the system under test), timed while the system under
 * test is idle, tracks that drift; every timing is reported at the
 * reference speed: raw / factor(), rates raw * factor().
 */
class HostSpeed
{
  public:
    /** Probe time that defines factor() == 1. Never change it: it is
     *  the unit every reported timing is expressed in. */
    static constexpr double kReferenceMs = 3.0;

    /** Time the kernel (median of five passes); the caller keeps the
     *  system under test idle meanwhile. */
    void sample();

    /** Median probe time / kReferenceMs: above 1 on a slower host. */
    double factor() const;

    /** Wall time spent probing, excluded from the timed window. */
    double seconds() const { return spent; }

    std::size_t samples() const { return ms.size(); }

  private:
    std::vector<double> ms;
    double spent = 0.0;
};

/** Linear-interpolated quantile of @p values (q in [0,1]). */
double quantile(std::vector<double> values, double q);

/** Median of @p values. */
double median(std::vector<double> values);

/**
 * One latency class: samples of a single mechanism (steadiness rule 2)
 * and a tail percentile fixed in the benchmark (rule 3), chosen as the
 * highest one with at least ten samples beyond it at the class's
 * designed sample count.
 */
struct LatencyClass
{
    std::string what;
    double tailQuantile = 0.9;
    std::vector<double> ms;
};

/** The result document a workload fills; main() prints it. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< First few failure reasons.

    /** Metric name -> (value, unit), emitted in name order. */
    std::map<std::string, std::pair<double, std::string>> metrics;

    /** Extra provenance: key -> raw JSON value. */
    std::map<std::string, std::string> details;

    /** Timings as measured, before host-speed scaling. */
    std::map<std::string, double> raw;

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Report a timing / a rate at the host's reference speed, keeping
     *  the raw value in details.raw. */
    void timing(const std::string &name, double raw_value,
                const std::string &unit, const HostSpeed &host);
    void rate(const std::string &name, double raw_value,
              const std::string &unit, const HostSpeed &host);
    void fail(const std::string &reason);
    void count(bool ok, const std::string &reason);

    /** Emit `<prefix>p50_ms`/`<prefix>tail_ms` (timings) and record the
     *  class's percentile and sample count in details. */
    void latency(const std::string &prefix, const LatencyClass &cls,
                 const HostSpeed &host);

    /** Record the probe's factor and sample count in details.host. */
    void hostSpeed(const HostSpeed &host);

    /** Record a digest of the op cycle's order (details.cycle), so a
     *  test can see that another seed changes the cycle. */
    void cycle(const std::vector<std::string> &labels);

    std::string toJson() const;
};

/**
 * In-memory span recorder for the traced run. Spans carry name, start,
 * end, parent span and op id; they are written once, at the end, as
 * Chrome trace-event JSON. Thread-safe.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::int64_t op = -1;
        int tid = 0; ///< Small per-thread tag, for the trace viewer.
    };

    /** Open a span; returns its index. */
    int begin(const std::string &name, int parent, std::int64_t op);
    void end(int span);

    /** Self time (duration minus time covered by children) per name. */
    std::map<std::string, double> selfSeconds() const;

    bool writeChrome(const std::string &path) const;

    std::size_t size() const;

  private:
    std::int64_t nowNs() const;

    mutable std::mutex mu;
    std::vector<Span> spans; ///< Guarded by mu.
    const Clock::time_point origin = Clock::now();
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, int parent = -1,
               std::int64_t op = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    int id() const { return index; }

  private:
    Tracer *tracer;
    int index = -1;
};

/// @name Processes and sockets.
/// @{

/** Fork-exec @p args (argv[0] is the binary path); -1 on failure. */
pid_t spawnProcess(const std::vector<std::string> &args,
                   const std::string &log_path);

/** Poll-connect @p path every 0.5 ms until it accepts or @p timeout_s
 *  passes; returns the connected fd or -1. */
int awaitSocket(const std::string &path, double timeout_s);

/** A buffered JSONL client connection. */
class Connection
{
  public:
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;
    bool ok() const { return fd >= 0; }

    /** Send @p line, return one response line ("" on failure). */
    std::string roundtrip(const std::string &line);

  private:
    int fd;
    std::string buffer;
};

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double vmHwmMb(pid_t pid);

/** Wait up to @p timeout_s for @p pid; SIGKILL and reap it after.
 *  Returns true if it exited on its own with status 0. */
bool reap(pid_t pid, double timeout_s);

/// @}

/** JSON string literal for @p text. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
