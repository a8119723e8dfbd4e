#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/workload_cache.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
stderrIsTty()
{
#ifndef _WIN32
    return isatty(2) != 0;
#else
    return false;
#endif
}

} // namespace

SweepDriver::SweepDriver(unsigned jobs) : jobs_(jobs)
{
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

std::vector<SweepPoint>
SweepDriver::grid(const std::vector<std::string> &benches,
                  const std::vector<SimConfig> &cfgs)
{
    std::vector<SweepPoint> points;
    points.reserve(benches.size() * cfgs.size());
    for (const std::string &bench : benches)
        for (const SimConfig &cfg : cfgs)
            points.push_back({bench, cfg});
    return points;
}

std::vector<SweepPoint>
SweepDriver::grid(const std::vector<std::string> &benches,
                  const std::vector<RunConfig> &cfgs)
{
    std::vector<SimConfig> converted;
    converted.reserve(cfgs.size());
    for (const RunConfig &cfg : cfgs)
        converted.push_back(toSimConfig(cfg));
    return grid(benches, converted);
}

void
SweepDriver::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;

    auto worker = [&] {
        while (true) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

ResultSet
SweepDriver::run(const std::vector<SweepPoint> &points)
{
    return run(points, RowCallback{});
}

ResultSet
SweepDriver::run(const std::vector<SweepPoint> &points,
                 const RowCallback &onRow)
{
    auto t0 = std::chrono::steady_clock::now();
    auto stopped = [this] {
        return stop_ && stop_->load(std::memory_order_relaxed);
    };

    // Phase 1: build each distinct workload exactly once, in
    // parallel. Later runOn() calls then only ever read the cache.
    std::set<std::string> unique;
    for (const SweepPoint &p : points)
        unique.insert(p.bench);
    std::vector<std::string> names(unique.begin(), unique.end());
    parallelFor(names.size(), [&](std::size_t i) {
        if (stopped())
            return;
        WorkloadCache::instance().get(names[i]);
    });
    double prep = secondsSince(t0);

    // Phase 1.5: decode each shared committed path exactly once.
    // Points are grouped by (canonical workload, layout, run
    // length); a group with two or more points amortizes one decode
    // pass across all of them, so every such group gets the
    // workload's shared read-only arena and its points replay from
    // flat memory instead of re-walking the CFG per point.
    using ArenaKey = std::tuple<std::string, bool, InstCount>;
    std::map<ArenaKey, std::size_t> group_sizes;
    std::vector<ArenaKey> point_keys;
    point_keys.reserve(points.size());
    for (const SweepPoint &p : points) {
        ArenaKey key{canonicalBenchSpec(p.bench),
                     p.cfg.optimizedLayout,
                     p.cfg.insts + p.cfg.warmupInsts};
        ++group_sizes[key];
        point_keys.push_back(std::move(key));
    }
    std::map<ArenaKey, std::shared_ptr<const OracleArena>> arenas;
    if (arenaMode_) {
        std::vector<const ArenaKey *> to_build;
        for (const auto &[key, n] : group_sizes)
            if (n >= 2)
                to_build.push_back(&key);
        // Materialize the map entries before the parallel build so
        // workers only ever write pre-existing slots.
        for (const ArenaKey *key : to_build)
            arenas[*key] = nullptr;
        parallelFor(to_build.size(), [&](std::size_t i) {
            if (stopped())
                return;
            const ArenaKey &key = *to_build[i];
            try {
                arenas[key] = WorkloadCache::instance()
                                  .get(std::get<0>(key))
                                  .arena(std::get<1>(key),
                                         std::get<2>(key) +
                                             kFetchAheadMargin);
            } catch (const std::bad_alloc &) {
                // Decode memory was not to be had: leave the slot
                // null and this group's points replay private
                // windows instead — bounded memory, bit-identical
                // rows.
                arenas[key] = nullptr;
            }
        });
    }
    double decode = secondsSince(t0) - prep;

    // Phase 2: the sweep itself. Rows are written by point index, so
    // the output order (and content) is independent of scheduling.
    std::vector<ResultRow> rows(points.size());
    std::vector<char> finished(points.size(), 0);
    std::size_t done = 0;
    std::mutex progress_mu;
    const bool progress = !quiet_ && stderrIsTty();
    parallelFor(points.size(), [&](std::size_t i) {
        if (stopped())
            return;
        const SweepPoint &p = points[i];
        const PlacedWorkload &work =
            WorkloadCache::instance().get(p.bench);
        const OracleArena *arena = nullptr;
        if (auto it = arenas.find(point_keys[i]); it != arenas.end())
            arena = it->second.get();
        auto rt0 = std::chrono::steady_clock::now();
        SimStats st = runOn(work, p.cfg, nullptr, arena);
        ResultRow &row = rows[i];
        row.bench = p.bench;
        row.cfg = p.cfg;
        row.stats = st;
        row.wallSeconds = secondsSince(rt0);
        finished[i] = 1;
        if (onRow || progress) {
            // Deliver and print under one lock so callbacks are
            // serialized and the counter on the terminal can only
            // move forward.
            std::lock_guard<std::mutex> lock(progress_mu);
            if (onRow)
                onRow(row, i, points.size());
            if (progress) {
                ++done;
                std::fprintf(stderr, "\r  sweep %zu/%zu", done,
                             points.size());
                if (done == points.size())
                    std::fputc('\n', stderr);
                std::fflush(stderr);
            }
        }
    });

    // Point order survives any scheduling (and any cancellation):
    // rows land by index, and unfinished points are simply absent.
    ResultSet rs;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (finished[i])
            rs.add(std::move(rows[i]));
    lastWall_ = secondsSince(t0);
    rs.setWallSeconds(lastWall_);
    if (!quiet_)
        std::fprintf(stderr,
                     "driver: %zu runs on %u thread%s, wall %.2fs "
                     "(workload build %.2fs, arena decode %.2fs, "
                     "%zu arena%s)\n",
                     points.size(), jobs_, jobs_ == 1 ? "" : "s",
                     lastWall_, prep, decode, arenas.size(),
                     arenas.size() == 1 ? "" : "s");
    return rs;
}

void
SweepDriver::forEachWorkload(
    const std::vector<std::string> &benches,
    const std::function<void(const PlacedWorkload &, std::size_t)>
        &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    parallelFor(benches.size(), [&](std::size_t i) {
        fn(WorkloadCache::instance().get(benches[i]), i);
    });
    lastWall_ = secondsSince(t0);
    if (!quiet_)
        std::fprintf(stderr,
                     "driver: %zu workloads on %u thread%s, wall "
                     "%.2fs\n",
                     benches.size(), jobs_, jobs_ == 1 ? "" : "s",
                     lastWall_);
}

} // namespace sfetch
