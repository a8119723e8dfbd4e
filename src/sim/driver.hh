/**
 * @file
 * SweepDriver: the shared simulation driver behind every bench and
 * example binary. It takes a list of (benchmark, SimConfig) points,
 * builds each PlacedWorkload once (through WorkloadCache), and runs
 * the points on a std::thread pool. Every run owns its
 * MemoryHierarchy, engine and Processor and reads the shared workload
 * image read-only, so parallel execution is guaranteed bit-identical
 * to serial execution: the ResultSet rows come back in point order
 * with the exact SimStats a `--jobs 1` run would produce.
 */

#ifndef SFETCH_SIM_DRIVER_HH
#define SFETCH_SIM_DRIVER_HH

#include <atomic>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/results.hh"

namespace sfetch
{

class PlacedWorkload;

/** One cell of a sweep grid. */
struct SweepPoint
{
    std::string bench;
    SimConfig cfg;
};

/** A point's arena-sharing group: (canonical workload, layout,
 * insts + warmup). */
using ArenaKey = std::tuple<std::string, bool, InstCount>;

ArenaKey arenaKey(const SweepPoint &point);

/**
 * The sweep's one arena-grouping rule: the groups of @p points with
 * at least two members, each of which amortizes one decoded shared
 * arena across its points. SweepDriver::run() decodes exactly these
 * in arena mode, and sfetchd's memory governor budgets for them.
 * Sorted, without duplicates.
 */
std::vector<ArenaKey>
sharedArenaGroups(const std::vector<SweepPoint> &points);

class SweepDriver
{
  public:
    /**
     * @param jobs Worker threads; 0 picks hardware_concurrency().
     * Pass 1 to force serial in-thread execution.
     */
    explicit SweepDriver(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Suppress the stderr progress/wall-clock report. */
    void setQuiet(bool quiet) { quiet_ = quiet; }

    /**
     * Enable/disable committed-path arena sharing (default on).
     * When enabled, every group of sharedArenaGroups() gets the
     * workload's shared full OracleArena — the committed path is
     * decoded once and each point replays it from flat memory.
     * Single-point groups, and every point when sharing is off,
     * replay a private bounded window instead (a full decode would
     * cost the same generation pass and hold the whole run in
     * memory). Rows are bit-identical either way.
     */
    void setArenaMode(bool enabled) { arenaMode_ = enabled; }
    bool arenaMode() const { return arenaMode_; }

    /** Cross product: every benchmark against every config. */
    static std::vector<SweepPoint>
    grid(const std::vector<std::string> &benches,
         const std::vector<SimConfig> &cfgs);

    /**
     * Per-row completion callback for the streaming run() overload:
     * called once per finished sweep point with the completed row,
     * its point index, and the total point count. Invocations are
     * serialized under an internal mutex but arrive in *completion*
     * order (point order when jobs() == 1); the returned ResultSet
     * keeps point order regardless. The row reference is only valid
     * for the duration of the call.
     */
    using RowCallback = std::function<void(
        const ResultRow &row, std::size_t point, std::size_t of)>;

    /**
     * Execute all points and return their rows in point order.
     * Workloads are cached; points with the same benchmark share one
     * PlacedWorkload. Reports the sweep wall-clock on stderr (and in
     * ResultSet::wallSeconds) unless quiet.
     */
    ResultSet run(const std::vector<SweepPoint> &points);

    /**
     * As run(points), additionally delivering each row through
     * @p onRow the moment its point finishes — long sweeps stream
     * incremental results (sfetchd's row streaming) instead of going
     * dark until the last point lands. The callback rows and the
     * returned rows are the same objects with the same bit-identical
     * stats; a null callback is equivalent to run(points).
     */
    ResultSet run(const std::vector<SweepPoint> &points,
                  const RowCallback &onRow);

    /**
     * Cooperative cancellation: when @p stop is non-null, run()
     * checks it between units of work (workload builds, arena
     * decodes, sweep points) and skips everything not yet started
     * once it reads true. Completed points still stream and are
     * returned — the ResultSet simply ends short (rows keep point
     * order; cancelled points are absent). The pointed-to flag must
     * outlive run(). Pass nullptr to clear.
     */
    void setStopFlag(const std::atomic<bool> *stop) { stop_ = stop; }

    /**
     * Parallel map over cached workloads, for measurements that are
     * not plain runOn() sweeps (oracle walks, custom layouts). Calls
     * @p fn(workload, index) once per benchmark on the pool; @p fn
     * must only write to per-index state.
     */
    void forEachWorkload(
        const std::vector<std::string> &benches,
        const std::function<void(const PlacedWorkload &, std::size_t)>
            &fn);

    /** Wall-clock seconds of the most recent run()/forEachWorkload(). */
    double lastWallSeconds() const { return lastWall_; }

  private:
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    unsigned jobs_;
    bool quiet_ = false;
    bool arenaMode_ = true;
    const std::atomic<bool> *stop_ = nullptr;
    double lastWall_ = 0.0;
};

} // namespace sfetch

#endif // SFETCH_SIM_DRIVER_HH
