/**
 * @file
 * serve_fanout: one closed-loop client against a front sfetchd that
 * fans each submit out over three worker sfetchd processes on
 * private loopback TCP ports.
 */

#include "serve.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "layout/oracle_arena.hh"
#include "serve/client.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace sfetch;

namespace
{

constexpr unsigned kWorkers = 3;
/** Every kFreshEvery-th submit names a bench no earlier submit used. */
constexpr std::size_t kFreshEvery = 8;
constexpr std::uint32_t kRotation = 6;
constexpr unsigned kWorkerBudgetMb = 12;
constexpr int kStartTimeoutMs = 10'000;
/** Timed segments per run, each on a freshly spawned fleet. */
constexpr unsigned kSegments = 3;

/**
 * A child process that dies with this one: SIGKILL on PR_SET_PDEATHSIG
 * covers a benchmark killed from outside, the destructor covers every
 * exit path inside it.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::vector<std::string> &args,
           const std::string &log_path)
    {
        std::vector<std::string> argv_s{binary};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t parent = getpid();
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != parent)
                _exit(127);
            const int fd = open(log_path.c_str(),
                                O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
            }
            execv(binary.c_str(), argv.data());
            _exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** True once the process has exited (reaps it). */
    bool
    exited()
    {
        if (pid_ <= 0)
            return true;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return true;
        }
        return false;
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGKILL);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** A loopback port nothing listens on right now. */
int
freePort()
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        close(fd);
        throw std::runtime_error("cannot find a free loopback port");
    }
    close(fd);
    return ntohs(addr.sin_port);
}

/** Wait until @p addr answers `health`; false if the daemon died or
 * the deadline passed. */
bool
waitHealthy(const std::string &addr, Daemon &d)
{
    const auto t0 = Clock::now();
    while (secondsSince(t0) * 1000 < kStartTimeoutMs) {
        if (d.exited())
            return false;
        try {
            ServeClient c(addr);
            const JsonValue r = c.request(R"({"verb":"health"})");
            if (const JsonValue *ok = r.find("ok"); ok && ok->boolean)
                return true;
        } catch (const std::exception &) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
}

/** A front and its workers, each on a private loopback port. */
struct Fleet
{
    std::vector<std::unique_ptr<Daemon>> workers;
    std::unique_ptr<Daemon> front;
    std::vector<std::string> workerAddrs;
    std::string frontAddr;

    std::vector<Daemon *>
    all()
    {
        std::vector<Daemon *> out{front.get()};
        for (auto &w : workers)
            out.push_back(w.get());
        return out;
    }
};

/** Summed VmHWM of the fleet's daemons, MiB. */
double
fleetRssMb(Fleet &fleet)
{
    double mb = 0;
    for (Daemon *d : fleet.all())
        mb += peakRssMb(d->pid());
    return mb;
}

/** Spawn the fleet and wait until every daemon answers `health`. */
std::unique_ptr<Fleet>
spawnFleet(const Options &opt)
{
    for (int attempt = 0; attempt < 3; ++attempt) {
        auto fleet = std::make_unique<Fleet>();
        const std::string log =
            opt.logDir + "/sfetchd-" + std::to_string(getpid()) + ".log";
        bool ok = true;
        std::string list;
        for (unsigned w = 0; w < kWorkers && ok; ++w) {
            const std::string hp = "127.0.0.1:" + std::to_string(freePort());
            fleet->workerAddrs.push_back("tcp:" + hp);
            list += (w ? "," : "") + hp;
            fleet->workers.push_back(std::make_unique<Daemon>(
                opt.sfetchd,
                std::vector<std::string>{
                    "--listen", "tcp:" + hp, "--quiet", "--mem-budget-mb",
                    std::to_string(kWorkerBudgetMb)},
                log));
        }
        fleet->frontAddr = "tcp:127.0.0.1:" + std::to_string(freePort());
        fleet->front = std::make_unique<Daemon>(
            opt.sfetchd,
            std::vector<std::string>{"--listen", fleet->frontAddr, "--quiet",
                                     "--worker", list},
            log);
        for (unsigned w = 0; w < kWorkers && ok; ++w)
            ok = waitHealthy(fleet->workerAddrs[w], *fleet->workers[w]);
        if (ok && waitHealthy(fleet->frontAddr, *fleet->front))
            return fleet;
        // A port taken between probe and bind: start over.
    }
    throw std::runtime_error("sfetchd fleet did not come up (see " +
                             opt.logDir + ")");
}

/** The seeded submit sequence. */
class SubmitPlan
{
  public:
    SubmitPlan(const Size &size, std::uint64_t seed)
        : size_(size), seed_(seed), rng_(seed, 0x5e7e)
    {
        // Fixed presets, seeded programs: seeds change detail, not mix.
        for (const char *preset :
             {"gzip", "vpr", "gcc", "crafty", "parser", "twolf"})
            rotation_.push_back(canonicalBenchSpec(
                std::string("synth:preset=") + preset +
                ",seed=" + std::to_string(seed * 100 + rotation_.size())));
        for (std::uint32_t a = 0; a < kRotation; ++a)
            for (std::uint32_t b = a + 1; b < kRotation; ++b)
                pairs_.emplace_back(a, b);
    }

    const std::vector<std::string> &rotation() const { return rotation_; }

    /**
     * Benches of submit @p j (call once per j, in order). Every pair
     * of rotation benches comes once in each cycle of 15 submits, in
     * a seeded order, so every run and seed sees the same mix.
     */
    std::vector<std::string>
    benches(std::size_t j)
    {
        if (j % pairs_.size() == 0)
            shuffle(pairs_, rng_);
        const auto [a, b] = pairs_[j % pairs_.size()];
        std::vector<std::string> out{rotation_[a], rotation_[b]};
        if (j % kFreshEvery == kFreshEvery - 1) {
            const std::vector<std::string> &suite = suiteNames();
            out[1] = canonicalBenchSpec(
                "synth:preset=" + suite[j % suite.size()] +
                ",seed=" + std::to_string(seed_ * 100'000 + 1000 + j));
        }
        return out;
    }

    std::string
    json(const std::vector<std::string> &benches) const
    {
        std::string archs, widths;
        for (const char *arch : kArchs)
            archs += (archs.empty() ? "" : ",") + std::string(arch);
        for (unsigned w : kWidths)
            widths += (widths.empty() ? "[" : ", ") + std::to_string(w);
        JsonObjectWriter w;
        w.field("verb", "submit")
            .field("bench", benches[0] + "," + benches[1])
            .field("arch", archs)
            .raw("widths", widths + "]")
            .field("layout", "opt")
            .field("insts", std::uint64_t(size_.insts))
            .field("warmup", std::uint64_t(size_.warmup))
            .field("arena", "auto");
        return w.str();
    }

    /** The submit's points in the protocol's grid order: bench, then
     * width, then engine. Row frame `point` i must carry points()[i]. */
    std::vector<SweepPoint>
    points(const std::vector<std::string> &benches) const
    {
        std::vector<SweepPoint> out;
        for (const std::string &bench : benches)
            for (unsigned width : kWidths)
                for (const char *arch : kArchs) {
                    SimConfig cfg(arch);
                    cfg.width = width;
                    cfg.optimizedLayout = true;
                    cfg.insts = size_.insts;
                    cfg.warmupInsts = size_.warmup;
                    out.push_back({bench, cfg});
                }
        return out;
    }

    static constexpr const char *kArchs[] = {"ev8", "ftb", "stream", "trace"};
    static constexpr unsigned kWidths[] = {4, 8};
    static constexpr std::size_t kPoints = 2 * 4 * 2;

  private:
    Size size_;
    std::uint64_t seed_;
    Pcg32 rng_;
    std::vector<std::string> rotation_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

/** The row payload of a frame: "row" is always the last field. */
std::string
rowPayload(const std::string &frame)
{
    static const std::string kKey = "\"row\": ";
    const std::size_t at = frame.find(kKey);
    if (at == std::string::npos || frame.back() != '}')
        return {};
    return frame.substr(at + kKey.size(),
                        frame.size() - 1 - at - kKey.size());
}

ResultRow
parseRow(const std::string &payload)
{
    ResultSet rs =
        ResultSet::fromJson("{\"wall_seconds\": 0, \"rows\": [" + payload + "]}");
    if (rs.size() != 1)
        throw std::runtime_error("row frame does not hold one row");
    return rs.at(0);
}

std::uint64_t
u64(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->kind == JsonValue::Kind::Number ? f->asU64() : 0;
}

/** A frame's index field, -1 when absent or not a number. */
std::int64_t
frameIndex(const JsonValue &v, const char *key)
{
    const JsonValue *f = v.find(key);
    return f && f->kind == JsonValue::Kind::Number
        ? static_cast<std::int64_t>(f->asU64())
        : -1;
}

/** Counters the benchmark reads through the `stats` verb. */
struct FleetCounters
{
    std::uint64_t shards = 0, shardRetries = 0, pointsRedispatched = 0;
    std::map<std::string, std::uint64_t> dispatches; //!< per worker
    std::uint64_t hits = 0, misses = 0, evictions = 0, fallbacks = 0;
    std::uint64_t arenaBytes = 0;
};

class StatsPoller
{
  public:
    explicit StatsPoller(Fleet &fleet) : front_(fleet.frontAddr)
    {
        for (const std::string &a : fleet.workerAddrs)
            workers_.push_back(std::make_unique<ServeClient>(a));
    }

    FleetCounters
    poll(Tracer &tracer, bool with_workers)
    {
        FleetCounters c;
        JsonValue f;
        {
            Tracer::Scope span(tracer, "serve.stats");
            f = front_.request(R"({"verb":"stats"})");
        }
        c.shards = u64(f, "shards_dispatched");
        c.shardRetries = u64(f, "shard_retries");
        c.pointsRedispatched = u64(f, "points_redispatched");
        if (const JsonValue *ws = f.find("workers"))
            for (const JsonValue &w : ws->array)
                c.dispatches[w.at("addr").asString()] =
                    u64(w, "dispatch_successes");
        if (!with_workers)
            return c;
        for (auto &client : workers_) {
            JsonValue s;
            {
                Tracer::Scope span(tracer, "serve.stats");
                s = client->request(R"({"verb":"stats"})");
            }
            c.hits += u64(s, "cache_hits");
            c.misses += u64(s, "cache_misses");
            c.evictions += u64(s, "cache_evictions");
            c.fallbacks += u64(s, "arena_fallbacks");
            c.arenaBytes += u64(s, "resident_arena_bytes");
        }
        return c;
    }

  private:
    ServeClient front_;
    std::vector<std::unique_ptr<ServeClient>> workers_;
};

struct SubmitRecord
{
    std::vector<std::string> benches;
    std::vector<std::string> payloads;
    std::vector<std::int64_t> point; //!< frame's `point` (-1: absent)
    std::vector<std::int64_t> of;    //!< frame's `of` (-1: absent)
    std::vector<bool> arena;
    double latency = 0, ttfr = 0, ack = 0, firstAfterAck = 0;
    double start = 0, end = 0; //!< seconds into the timed phase
    std::size_t frameBytes = 0;
    bool traced = false;
};

} // namespace

void
runServeFanout(const Options &opt, Report &report)
{
    const Size size = sizeByName(opt.size);
    Tracer tracer;
    SubmitPlan plan(size, opt.seed);

    // Set-up: spawning the four daemons until every one answers
    // health. Each timed segment runs on a freshly spawned fleet, so
    // one run samples several process placements on the host's CPUs;
    // the rest of the repetitions run before and after the segments.
    std::vector<double> setup;
    std::unique_ptr<Fleet> fleet;
    auto spawn = [&] {
        fleet.reset();
        const auto t0 = Clock::now();
        fleet = spawnFleet(opt);
        setup.push_back(secondsSince(t0));
    };
    const unsigned extra_reps =
        size.setupReps > kSegments ? size.setupReps - kSegments : 0;
    for (unsigned r = 0; r < extra_reps / 2; ++r)
        spawn();

    // Timed phase: closed loop, one submit in flight. Trace runs
    // alternate untraced and traced blocks of kFreshEvery submits, so
    // both halves see the same share of fresh benches. Segments end on
    // a block boundary, so no throughput window spans a respawn.
    std::vector<SubmitRecord> subs;
    std::size_t fresh_submits = 0, workers_used = 0, polled = 0;
    double share_max = 0, arena_mb = 0;
    std::vector<double> rss;
    FleetCounters totals;
    const std::size_t seg_min = std::max<std::size_t>(
        kFreshEvery, size.digestSubmits / kSegments / kFreshEvery * kFreshEvery);
    std::size_t j = 0;
    bool aborted = false;
    const auto t_start = Clock::now();
    for (unsigned seg = 0; seg < kSegments && !aborted; ++seg) {
        spawn();
        ServeClient client(fleet->frontAddr);
        StatsPoller poller(*fleet);
        const FleetCounters start = poller.poll(tracer, true);
        const auto seg_start = Clock::now();
        for (std::size_t n = 0;
             n < seg_min || n % kFreshEvery != 0 ||
             secondsSince(seg_start) < opt.seconds / kSegments;
             ++n, ++j) {
            const std::vector<std::string> benches = plan.benches(j);
            const std::string json = plan.json(benches);
            SubmitRecord rec;
            rec.benches = benches;
            rec.traced = opt.trace && (j / kFreshEvery) % 2 == 1;
            tracer.setEnabled(rec.traced);
            FleetCounters before;
            if (rec.traced)
                before = poller.poll(tracer, false);

            const std::size_t root = tracer.begin("bench.submit", j);
            std::size_t phase = tracer.begin("serve.ack", j);
            Clock::time_point t_ack, t_first;
            bool have_ack = false, have_first = false;
            const auto t0 = Clock::now();
            rec.start = std::chrono::duration<double>(t0 - t_start).count();
            bool ok = false;
            report.attempt();
            try {
                ok = client.submitStream(json, [&](const JsonValue &parsed,
                                                   const std::string &raw) {
                    if (!have_ack) {
                        t_ack = Clock::now();
                        have_ack = true;
                        tracer.end(phase);
                        phase = tracer.begin("serve.first_row", j);
                    }
                    if (!parsed.find("row"))
                        return true;
                    if (!have_first) {
                        t_first = Clock::now();
                        have_first = true;
                        tracer.end(phase);
                        phase = tracer.begin("serve.rows", j);
                    }
                    rec.payloads.push_back(rowPayload(raw));
                    rec.point.push_back(frameIndex(parsed, "point"));
                    rec.of.push_back(frameIndex(parsed, "of"));
                    const JsonValue *a = parsed.find("arena");
                    rec.arena.push_back(a && a->kind == JsonValue::Kind::Bool &&
                                        a->boolean);
                    rec.frameBytes += raw.size() + 1;
                    return true;
                });
            } catch (const std::exception &e) {
                report.fail(std::string("submit ") + std::to_string(j) +
                            ": " + e.what());
                tracer.end(root);
                aborted = true;
                break;
            }
            rec.latency = secondsSince(t0);
            tracer.end(root);
            if (!ok || rec.payloads.size() != SubmitPlan::kPoints) {
                report.fail("submit " + std::to_string(j) + " returned " +
                            std::to_string(rec.payloads.size()) + " rows" +
                            (ok ? "" : " and no summary"));
                aborted = true;
                break;
            }
            rec.ack = std::chrono::duration<double>(t_ack - t0).count();
            rec.ttfr = std::chrono::duration<double>(t_first - t0).count();
            rec.firstAfterAck = rec.ttfr - rec.ack;
            if (rec.traced) {
                const FleetCounters after = poller.poll(tracer, true);
                std::uint64_t total = 0, top = 0;
                for (const auto &[addr, count] : after.dispatches) {
                    const std::uint64_t d = count - before.dispatches[addr];
                    total += d;
                    top = std::max(top, d);
                    workers_used += d > 0;
                }
                share_max += total ? double(top) / double(total) : 0.0;
                arena_mb =
                    std::max(arena_mb, double(after.arenaBytes) / (1 << 20));
                ++polled;
            }
            fresh_submits += j % kFreshEvery == kFreshEvery - 1;
            rec.end = secondsSince(t_start);
            subs.push_back(std::move(rec));
            // Fresh benches stay cached in the workers, so memory grows
            // with submits; read it after a fixed count, not a time.
            if (n + 1 == seg_min)
                rss.push_back(fleetRssMb(*fleet));
        }
        tracer.setEnabled(false);
        const FleetCounters end = poller.poll(tracer, true);
        totals.shards += end.shards - start.shards;
        totals.shardRetries += end.shardRetries - start.shardRetries;
        totals.pointsRedispatched +=
            end.pointsRedispatched - start.pointsRedispatched;
        totals.hits += end.hits - start.hits;
        totals.misses += end.misses - start.misses;
        totals.evictions += end.evictions - start.evictions;
        totals.fallbacks += end.fallbacks - start.fallbacks;
    }
    const double timed_s = secondsSince(t_start);
    for (unsigned r = extra_reps / 2; r < extra_reps; ++r)
        spawn();
    fleet.reset();

    // Checks, outside the timed phase: every row obeys the counter
    // identities and matches, byte for byte in its simulated part, the
    // row an in-process SweepDriver computes for the same point.
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    double build_s = 0;
    if (opt.trace) {
        tracer.setEnabled(true);
        Tracer::Scope root(tracer, "bench.setup");
        for (const std::string &bench : plan.rotation()) {
            Tracer::Scope span(tracer, "workload.get");
            cache.get(bench);
        }
    }
    for (double d : tracer.durations("workload.get"))
        build_s += d;

    std::map<std::string, ResultRow> parsed; // payload sim text -> row
    std::vector<SweepPoint> points;
    std::set<std::string> keys;
    double total_insts = 0, insts[2] = {0, 0}, busy[2] = {0, 0};
    std::vector<double> sub_start, sub_end, sub_insts_v;
    std::size_t rows = 0, arena_rows = 0, frame_bytes = 0;
    SimDigest digest;
    for (std::size_t s = 0; s < subs.size(); ++s) {
        const SubmitRecord &rec = subs[s];
        double sub_insts = 0;
        for (const SweepPoint &p : plan.points(rec.benches))
            if (keys.insert(pointKey(p.bench, p.cfg)).second)
                points.push_back(p);
        for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
            const std::string sim = simPart(rec.payloads[i]);
            auto it = parsed.find(sim);
            if (it == parsed.end()) {
                try {
                    it = parsed.emplace(sim, parseRow(rec.payloads[i])).first;
                } catch (const std::exception &e) {
                    report.fail(std::string("unparseable row: ") + e.what());
                    continue;
                }
            }
            const ResultRow &row = it->second;
            if (s < size.digestSubmits)
                digest.add(row, sim);
            sub_insts += simInsts(row);
            ++rows;
            arena_rows += rec.arena[i];
        }
        frame_bytes += rec.frameBytes;
        total_insts += sub_insts;
        insts[rec.traced] += sub_insts;
        sub_start.push_back(rec.start);
        sub_end.push_back(rec.end);
        sub_insts_v.push_back(sub_insts);
        busy[rec.traced] += rec.latency;
    }

    SweepDriver driver(0);
    driver.setQuiet(true);
    ResultSet ref = driver.run(points);
    std::map<std::string, std::string> ref_text; // key -> sim part
    double serialize_s = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto t0 = Clock::now();
        std::string text = simPart(ref.rowJson(i));
        serialize_s += secondsSince(t0);
        if (opt.corruptReference && i == 0)
            text[text.size() / 2] ^= 1;
        ref_text[pointKey(ref.at(i).bench, ref.at(i).cfg)] = std::move(text);
    }
    // Row frame i of a submit must carry point i of its plan, in
    // order, with that point's reference row.
    for (std::size_t s = 0; s < subs.size(); ++s) {
        const SubmitRecord &rec = subs[s];
        const std::vector<SweepPoint> want = plan.points(rec.benches);
        for (std::size_t i = 0; i < rec.payloads.size(); ++i) {
            const std::string sim = simPart(rec.payloads[i]);
            auto it = parsed.find(sim);
            if (it == parsed.end())
                continue; // already failed as unparseable
            const ResultRow &row = it->second;
            const std::string key = pointKey(want[i].bench, want[i].cfg);
            const std::string frame =
                "submit " + std::to_string(s) + " row frame " +
                std::to_string(i) + ": ";
            std::string err = rowIdentityError(row);
            if (err.empty() &&
                (rec.point[i] != std::int64_t(i) ||
                 rec.of[i] != std::int64_t(SubmitPlan::kPoints)))
                err = frame + "point " + std::to_string(rec.point[i]) +
                      " of " + std::to_string(rec.of[i]) + ", want " +
                      std::to_string(i) + " of " +
                      std::to_string(SubmitPlan::kPoints);
            if (err.empty() && pointKey(row.bench, row.cfg) != key)
                err = frame + "holds " + pointKey(row.bench, row.cfg) +
                      ", want " + key;
            if (err.empty() && ref_text[key] != sim)
                err = frame + key + " differs from the in-process "
                                    "SweepDriver row";
            report.check(err.empty(), err);
        }
    }
    oracleSampleCheck(ref.rows(), size.samplePoints, opt.seed, opt.trace,
                      false, tracer, report);

    std::vector<double> latency, ttfr, ack, after_ack;
    for (const SubmitRecord &rec : subs) {
        latency.push_back(rec.latency);
        ttfr.push_back(rec.ttfr);
        if (rec.traced) {
            ack.push_back(rec.ack);
            after_ack.push_back(rec.firstAfterAck);
        }
    }
    const double footprint_mb =
        double(plan.rotation().size()) *
        double(size.insts + size.warmup + kFetchAheadMargin) *
        double(kArenaBytesPerInstEstimate) / (1 << 20);
    std::ostringstream os;
    os << "timed phase: " << subs.size() << " submits of "
       << SubmitPlan::kPoints << " points (" << fresh_submits
       << " naming a fresh bench), " << total_insts / 1e6
       << " M simulated insts in " << timed_s << " s; front + " << kWorkers
       << " workers, one closed-loop client";
    report.note(os.str());
    std::ostringstream bs;
    bs << "serve: worker memory budget " << kWorkerBudgetMb << " MiB = "
       << kWorkerBudgetMb / footprint_mb << " of the rotation's estimated "
       << "arena footprint (" << footprint_mb << " MiB)";
    report.note(bs.str());
    report.note("digest: " + opt.workload + " seed=" +
                std::to_string(opt.seed) + " " + digest.hex() + " over " +
                std::to_string(digest.size()) + " distinct points of the first " +
                std::to_string(size.digestSubmits) + " submits");

    if (!opt.trace) {
        reportSetup(setup, report);
        reportThroughput(sub_start, sub_end, sub_insts_v, kFreshEvery, report);
        reportLatency(latency, ttfr, report);
        report.metric("peak_rss_mb", median(rss), "MiB");
        return;
    }

    engineProbes({plan.rotation()[0], plan.rotation()[1]}, size.insts,
                 tracer, report);
    digest.reportCounts(report);
    const double shards = double(totals.shards);
    const double lookups = double(totals.hits + totals.misses);
    report.metric("workload.build_s", build_s, "s");
    report.metric("workload.cache_hit_ratio",
                  lookups ? double(totals.hits) / lookups : 0.0,
                  "ratio");
    report.metric("layout.arena_decode_s", 0.0, "s");
    report.metric("layout.arena_point_share",
                  rows ? double(arena_rows) / double(rows) : 0.0, "ratio");
    report.metric("layout.arena_mb", arena_mb, "MiB");
    report.metric("sim.sweep_s", 0.0, "s");
    report.metric("sim.parallel_efficiency", 0.0, "ratio");
    report.metric("results.serialize_s",
                  ref.size() ? serialize_s * SubmitPlan::kPoints / double(ref.size())
                             : 0.0,
                  "s");
    report.metric("socket_io.bytes_per_row",
                  rows ? double(frame_bytes) / double(rows) : 0.0, "B");
    report.metric("serve.ack_p50_s", median(ack), "s");
    report.metric("serve.first_row_after_ack_p50_s", median(after_ack), "s");
    report.metric("serve.shards_per_submit",
                  subs.empty() ? 0.0 : shards / double(subs.size()), "count");
    report.metric("serve.points_per_shard",
                  shards ? double(rows) / shards : 0.0, "count");
    report.metric("fleet.workers_used_per_submit",
                  polled ? double(workers_used) / double(polled) : 0.0, "count");
    report.metric("fleet.worker_rows_share_max",
                  polled ? share_max / double(polled) : 0.0, "ratio");
    report.metric("serve.arena_fallbacks", double(totals.fallbacks),
                  "count");
    report.metric("serve.worker_cache_evictions",
                  double(totals.evictions), "count");
    report.metric("serve.shard_retries",
                  double(totals.shardRetries), "count");
    report.metric("serve.points_redispatched",
                  double(totals.pointsRedispatched),
                  "count");
    report.metric("trace.overhead_frac",
                  1.0 - (insts[1] / busy[1]) / (insts[0] / busy[0]), "ratio");
    finishTrace(tracer, opt, report);
}

} // namespace perfbench
