/**
 * @file
 * Shared pieces of the sfetch benchmark: run options, the metric
 * report every workload fills in, row checks, the simulated-stats
 * digest, and small timing and statistics helpers.
 *
 * The benchmark drives sfetch only through its public entry points
 * (WorkloadCache, PlacedWorkload, SweepDriver, runOn, ResultSet and
 * the sfetchd protocol), so every number it reports is measured from
 * outside the layers it names.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/results.hh"
#include "util/rng.hh"

namespace perfbench
{

class Tracer;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Run sizes. `full` is what BENCHMARK.json runs; `tiny` is the
 * self-test size that exercises every code path in seconds. */
struct Size
{
    sfetch::InstCount insts;       //!< measured instructions per point
    sfetch::InstCount warmup;      //!< warmup instructions per point
    unsigned setupReps;            //!< cold set-ups per run (median)
    unsigned samplePoints;         //!< live-vs-arena sample points
    unsigned digestSubmits;        //!< serve: submits in the digest and RSS
};

Size sizeByName(const std::string &name);

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string size = "full";
    std::string traceOut;     //!< Chrome trace JSON path ("" = none)
    std::string sfetchd;      //!< sfetchd binary (serve_fanout)
    std::string logDir;       //!< daemon logs (serve_fanout)
    bool corruptReference = false; //!< self-test: must fail the check
};

/**
 * Everything one run reports: metrics in insertion order, the
 * operation and check counts behind error_rate, and notes printed
 * before the result line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** One attempted operation or checked row. */
    void attempt() { ++attempted_; }
    /** One failed operation or mismatching row; keeps the message. */
    void fail(const std::string &what);

    /** Record one check: attempted, and failed unless @p ok. */
    void check(bool ok, const std::string &what);

    void note(const std::string &line) { notes_.push_back(line); }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Human-readable lines, then the one-line JSON result last. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Counter identities every row must satisfy: committed instructions
 * in [insts, insts + width - 1], cycles > 0, correct-path fetched
 * instructions >= committed. With warmup, up to kFetchAheadMargin
 * instructions fetched before counting started may commit inside
 * the counted window, so fetched may fall short by that much.
 * Returns "" when they hold.
 */
std::string rowIdentityError(const sfetch::ResultRow &row);

/**
 * The simulated part of a rowJson() line: everything before the
 * host-time "wall_seconds" field. Two runs of one point must agree
 * on it byte for byte.
 */
std::string simPart(const std::string &row_json);

/** Stable key of one sweep point (bench, engine spec, knobs). */
std::string pointKey(const std::string &bench, const sfetch::SimConfig &cfg);

/**
 * Digest of simulated stats: point key -> simulated row text, hashed
 * in key order (FNV-1a 64), so it depends only on which points ran
 * and what they simulated, never on host timing or row order. Also
 * aggregates the simulated per-layer counts over the same rows.
 */
class SimDigest
{
  public:
    /** Adds the row; returns false when the key was already present
     * with a different simulated text (a determinism failure). */
    bool add(const sfetch::ResultRow &row, const std::string &sim_text);

    std::size_t size() const { return rows_.size(); }
    std::string hex() const;

    /** pipeline.sim_cycles ... cache.l1d_miss_rate (trace runs). */
    void reportCounts(Report &report) const;

  private:
    struct Entry
    {
        std::string text;
        sfetch::SimStats stats;
    };
    std::map<std::string, Entry> rows_;
};

/** Fisher-Yates shuffle driven by the workload seed's generator. */
template <typename T>
void
shuffle(std::vector<T> &v, sfetch::Pcg32 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1],
                  v[rng.nextBounded(static_cast<std::uint32_t>(i))]);
}

/** Linear-interpolation quantile (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** VmHWM of a process in MiB (pid 0 = this process); 0 on error. */
double peakRssMb(int pid = 0);

/** Simulated instructions of a row: warmup plus measured commits. */
inline double
simInsts(const sfetch::ResultRow &row)
{
    return double(row.cfg.warmupInsts) + double(row.stats.committedInsts);
}

/**
 * Host nanoseconds per simulated instruction of each engine, and per
 * simulated cycle, from serial warmup-free runOn calls: fetch.ev8,
 * fetch.ftb, fetch.seq, core.stream, tcache.trace, pipeline. The
 * committed path is replayed from the workload's arena, decoded
 * before timing, as both workloads replay.
 */
void engineProbes(const std::vector<std::string> &benches,
                  sfetch::InstCount insts, Tracer &tracer, Report &report);

/**
 * Run @p samples seeded sample points twice through runOn, once live
 * and once replayed from the workload's arena, and check that both
 * give identical SimStats and match @p reference (the row the timed
 * phase produced). Reports layout.oracle_live_ns_per_inst when
 * @p timed. @p corrupt perturbs the reference (self-test).
 */
void oracleSampleCheck(const std::vector<sfetch::ResultRow> &reference,
                       unsigned samples, std::uint64_t seed,
                       bool timed, bool corrupt, Tracer &tracer,
                       Report &report);

/** Set-up time summary line and setup_s metric from repetitions. */
void reportSetup(const std::vector<double> &reps, Report &report);

/** The serve and fleet per-layer metrics, as 0 on a workload that
 * never touches sfetchd. */
void reportServeNotApplicable(Report &report);

/**
 * Simulated throughput of a closed loop, robust to bursts of host
 * noise: requests are cut into consecutive windows of @p window, each
 * window's throughput is its simulated instructions over the host
 * time from its first request's start to its last one's end, and the
 * metric is the median window. Notes the window count.
 */
void reportThroughput(const std::vector<double> &start,
                      const std::vector<double> &end,
                      const std::vector<double> &insts, std::size_t window,
                      Report &report);

/** Latency and time-to-first-row percentiles with sample counts. */
void reportLatency(const std::vector<double> &latency,
                   const std::vector<double> &ttfr, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
