#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <tuple>

#include <sys/socket.h>
#include <unistd.h>

#include "layout/oracle_arena.hh"
#include "serve/client.hh"
#include "serve/fleet.hh"
#include "serve/journal.hh"
#include "serve/jsonio.hh"
#include "serve/socket_io.hh"
#include "sim/cli.hh"
#include "sim/workload_cache.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

namespace
{

/** Structured protocol error, one line. */
std::string
errorReply(const std::string &reason, const std::string &what)
{
    JsonObjectWriter w;
    w.field("ok", false).field("reason", reason).field("error", what);
    return w.str();
}

/**
 * The daemon's copy of the driver's arena-grouping rule: groups of
 * (canonical bench, layout, run length) with at least two points get
 * one decoded arena of (run length + fetch-ahead margin) entries, at
 * kArenaBytesPerInstEstimate bytes each. This is the governor's
 * admission estimate; the true cost is OracleArena::bytes() after
 * decode, which the estimate intentionally over-approximates.
 */
std::size_t
estimateArenaBytes(const std::vector<SweepPoint> &points)
{
    using Key = std::tuple<std::string, bool, InstCount>;
    std::map<Key, std::size_t> group_sizes;
    for (const SweepPoint &p : points)
        ++group_sizes[Key{canonicalBenchSpec(p.bench),
                          p.cfg.optimizedLayout,
                          p.cfg.insts + p.cfg.warmupInsts}];
    std::size_t est = 0;
    for (const auto &[key, n] : group_sizes)
        if (n >= 2)
            est += static_cast<std::size_t>(std::get<2>(key) +
                                            kFetchAheadMargin) *
                   kArenaBytesPerInstEstimate;
    return est;
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The --worker flag's address convention, shared with the register
 * verb: bare HOST:PORT means tcp:HOST:PORT (a bare token without a
 * scheme or colon stays a Unix path, per the address grammar). */
std::string
normalizeWorkerAddr(const std::string &text)
{
    if (text.rfind("unix:", 0) != 0 && text.rfind("tcp:", 0) != 0 &&
        text.find(':') != std::string::npos)
        return "tcp:" + text;
    return text;
}

} // namespace

/**
 * One submitted sweep. A connection thread (the submitter's, or a
 * token resubmitter's after a crash) is the sole consumer of `out`;
 * the worker running the job is the sole producer. Everything else
 * about the job is reached through atomics or is written once before
 * `closed`.
 */
struct Server::Job
{
    std::uint64_t id = 0;
    std::vector<SweepPoint> points;
    std::vector<std::string> benches; //!< unique specs, for pinning
    std::size_t pointCount = 0; //!< survives the points.clear() below
    unsigned sweepJobs = 1;

    std::string token;    //!< client idempotency token ("" if none)
    std::string specJson; //!< raw submit request, for the journal
    std::string clientId; //!< submitter identity (peer credentials)

    enum class Arena { Auto, Off, Require };
    Arena arenaWanted = Arena::Auto;
    std::size_t estArenaBytes = 0;
    std::size_t reservedBytes = 0; //!< governor grant, while running

    std::atomic<bool> cancel{false};
    std::atomic<bool> finalized{false}; //!< finishJob ran (once)
    std::atomic<JobState> state{JobState::Queued};
    std::atomic<std::uint64_t> pointsDone{0};
    std::atomic<std::int64_t> lastProgressMs{0}; //!< watchdog clock

    std::mutex mu; //!< out, closed, everAttached
    std::condition_variable cv;
    std::deque<std::string> out;
    bool closed = false;
    /** A consumer has (ever) streamed this job. Recovered jobs start
     * detached: rows buffer in `out` until the original submitter
     * resubmits its token and attaches. */
    bool everAttached = true;

    /** Journalled shard dispatches from a front daemon's previous
     * life, for token reuse on recovery (runJobSharded). */
    std::vector<ShardRecord> priorShards;
};

Server::Server(ServeConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.workers == 0) {
        cfg_.workers = std::thread::hardware_concurrency();
        if (cfg_.workers == 0)
            cfg_.workers = 1;
    }
    for (std::string &w : cfg_.workerAddrs)
        w = normalizeWorkerAddr(w);
}

Server::~Server()
{
    stop(false);
}

void
Server::start()
{
    startMs_ = nowMs();
    if (!cfg_.stateDir.empty()) {
        journal_ = std::make_unique<JobJournal>(cfg_.stateDir);
        const std::size_t n = recoverJobs();
        if (n > 0 || journal_->torn() > 0)
            log("journal: re-queued " + std::to_string(n) +
                " job(s), skipped " +
                std::to_string(journal_->torn()) +
                " torn/corrupt line(s)");
    }
    // The fleet exists on every daemon (a worker-only daemon just has
    // an empty one), so the register verb can turn any instance into
    // a front at runtime. Static seeds first, then the journalled
    // membership ops — a journalled deregister masks a static seed.
    fleet_ = std::make_unique<FleetManager>(FleetConfig{
        cfg_.probeIntervalMs, cfg_.probeTimeoutMs, cfg_.quiet});
    fleet_->seed(cfg_.workerAddrs);
    if (journal_) {
        for (const auto &[waddr, registered] :
             journal_->recoveredWorkers()) {
            try {
                if (registered)
                    fleet_->registerWorker(waddr);
                else
                    fleet_->deregisterWorker(waddr);
            } catch (const std::exception &e) {
                log("journal: dropping bad worker record '" + waddr +
                    "': " + e.what());
            }
        }
    }
    const SocketAddr addr = parseSocketAddr(cfg_.socketPath);
    listenFd_ = listenSocket(addr);
    boundAddress_ = boundAddr(listenFd_, addr).text();
    running_ = true;
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    if (cfg_.pointTimeoutMs > 0)
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    log("listening on " + boundAddress_ + " (" +
        std::to_string(cfg_.workers) + " worker" +
        (cfg_.workers == 1 ? "" : "s") + ", budget " +
        std::to_string(cfg_.memBudgetBytes >> 20) + " MiB)");
    if (!fleet_->empty()) {
        std::string list;
        for (const std::string &w : fleet_->members())
            list += (list.empty() ? "" : ", ") + w;
        log("front mode: fanning sweeps out across " +
            std::to_string(fleet_->size()) + " worker(s): " + list);
    }
    fleet_->start();
}

void
Server::stop(bool drain)
{
    if (!running_.exchange(false))
        return;
    draining_ = true;
    log(drain ? "draining..." : "stopping...");
    if (!drain) {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, job] : jobs_)
            job->cancel = true;
    }
    // Workers finish the queue (instantly when everything is
    // cancelled) before they see stopping_ with an empty queue.
    stopping_ = true;
    queueCv_.notify_all();
    govCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    // Pumps (inside the worker threads) are gone; now the prober can
    // go too.
    if (fleet_)
        fleet_->stop();
    watchdogCv_.notify_all();
    if (watchdogThread_.joinable())
        watchdogThread_.join();

    // Streams have all flushed (every job is closed once its worker
    // returns), so connection threads are back in readLine — wake
    // them with EOF, wait for each to retire itself, then collect
    // the thread handles.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (const auto &[id, ch] : conns_)
            ch->shutdownRead();
    }
    {
        std::unique_lock<std::mutex> lock(connMu_);
        connCv_.wait(lock, [this] { return conns_.empty(); });
    }
    std::map<std::uint64_t, std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        threads.swap(connThreads_);
        doneConnIds_.clear();
    }
    for (auto &[id, t] : threads)
        t.join();
    const SocketAddr addr = parseSocketAddr(cfg_.socketPath);
    if (addr.kind == SocketAddr::Kind::Unix)
        ::unlink(addr.path.c_str());
    log("stopped");
}

void
Server::requestShutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(shutdownMu_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
        shutdownDrain_ = drain;
    }
    shutdownCv_.notify_all();
}

bool
Server::waitShutdown()
{
    std::unique_lock<std::mutex> lock(shutdownMu_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
    return shutdownDrain_;
}

void
Server::reapConnThreads()
{
    std::vector<std::thread> dead;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        std::vector<std::uint64_t> keep;
        for (std::uint64_t id : doneConnIds_) {
            auto it = connThreads_.find(id);
            if (it == connThreads_.end()) {
                keep.push_back(id); // handle not registered yet
                continue;
            }
            dead.push_back(std::move(it->second));
            connThreads_.erase(it);
        }
        doneConnIds_ = std::move(keep);
    }
    for (std::thread &t : dead)
        t.join();
}

void
Server::acceptLoop()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen fd shut down: server stopping
        }
        // Finished connections retire themselves from conns_ but
        // cannot join their own thread; collect the handles here so
        // a long-lived daemon holds resources only for connections
        // that still exist.
        reapConnThreads();
        auto ch = std::make_shared<LineChannel>(fd);
        ch->setReadTimeout(cfg_.idleTimeoutMs);
        ch->setWriteTimeout(cfg_.writeTimeoutMs);
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            if (cfg_.maxConns == 0 ||
                conns_.size() < cfg_.maxConns) {
                id = nextConnId_++;
                conns_[id] = ch;
            }
        }
        if (id == 0) {
            connsRejected_.fetch_add(1);
            ch->writeLine(errorReply(
                "busy", std::to_string(cfg_.maxConns) +
                            " connections active, cap reached"));
            continue; // ch closes on scope exit
        }
        std::thread th([this, id, ch] {
            serveConnection(ch);
            std::lock_guard<std::mutex> lock(connMu_);
            conns_.erase(id);
            doneConnIds_.push_back(id);
            // Notify under the lock: stop() cannot outrun us past
            // its wait while we still hold connMu_.
            connCv_.notify_all();
        });
        std::lock_guard<std::mutex> lock(connMu_);
        connThreads_[id] = std::move(th);
    }
}

void
Server::serveConnection(const std::shared_ptr<LineChannel> &ch)
{
    std::string line;
    while (true) {
        if (!ch->readLine(line)) {
            if (ch->timedOut()) {
                connTimeouts_.fetch_add(1);
                ch->writeLine(errorReply(
                    "timeout", "idle timeout: no request within " +
                                   std::to_string(cfg_.idleTimeoutMs) +
                                   " ms"));
            }
            return;
        }
        handleRequest(line, *ch);
    }
}

void
Server::handleRequest(const std::string &line, LineChannel &ch)
{
    JsonValue req;
    try {
        req = JsonReader(line).parse();
    } catch (const std::exception &e) {
        ch.writeLine(errorReply("bad_json", e.what()));
        return;
    }
    const JsonValue *verb = req.find("verb");
    if (!verb || verb->kind != JsonValue::Kind::String) {
        ch.writeLine(
            errorReply("unknown_verb", "missing string 'verb'"));
        return;
    }
    const std::string &v = verb->string;
    try {
        if (v == "submit") {
            handleSubmit(req, line, ch);
        } else if (v == "status") {
            ch.writeLine(handleStatus(req));
        } else if (v == "cancel") {
            ch.writeLine(handleCancel(req));
        } else if (v == "stats") {
            ch.writeLine(statsJson());
        } else if (v == "health") {
            ServeStats s = stats();
            JsonObjectWriter w;
            w.field("ok", true)
                .field("health", "ok")
                .field("draining", draining_.load())
                .field("jobs_queued", s.jobsQueued)
                .field("jobs_running", s.jobsRunning)
                .field("queue_depth", s.jobsQueued)
                .field("journal_degraded", s.journalDegraded)
                .field("uptime_seconds",
                       static_cast<std::uint64_t>(
                           (nowMs() - startMs_) / 1000));
            ch.writeLine(w.str());
        } else if (v == "workers") {
            ch.writeLine(handleWorkers());
        } else if (v == "register") {
            ch.writeLine(handleWorkerMembership(req, true));
        } else if (v == "deregister") {
            ch.writeLine(handleWorkerMembership(req, false));
        } else if (v == "shutdown") {
            const JsonValue *d = req.find("drain");
            bool drain = !d || d->kind != JsonValue::Kind::Bool ||
                         d->boolean;
            JsonObjectWriter w;
            w.field("ok", true)
                .field("shutting_down", true)
                .field("drain", drain);
            ch.writeLine(w.str());
            requestShutdown(drain);
        } else {
            ch.writeLine(
                errorReply("unknown_verb", "unknown verb '" + v + "'"));
        }
    } catch (const std::exception &e) {
        // Anything a handler failed to classify itself.
        ch.writeLine(errorReply("bad_spec", e.what()));
    }
}

std::shared_ptr<Server::Job>
Server::makeJob(const JsonValue &req)
{
    auto text = [&](const char *key, const char *dflt) -> std::string {
        const JsonValue *v = req.find(key);
        if (!v)
            return dflt;
        return v->asString();
    };
    // The shared pipe-width rule; clamping first keeps a huge value
    // from wrapping into the range on the way to unsigned.
    auto width = [](const JsonValue &v) {
        const unsigned w = static_cast<unsigned>(
            std::min<std::uint64_t>(v.asU64(), ~0u));
        checkPipeWidth(w);
        return w;
    };
    auto job = std::make_shared<Job>();

    if (const JsonValue *pv = req.find("points")) {
        // Explicit form: the point list is given outright, one
        // object per sweep point. This is how a front daemon ships
        // shard subsets — an arbitrary subset of a grid is not
        // expressible in the grid form — but any client may use it.
        for (const char *excluded :
             {"bench", "arch", "widths", "layout", "insts", "warmup"})
            if (req.find(excluded))
                throw std::invalid_argument(
                    "'points' is the explicit form; it excludes '" +
                    std::string(excluded) + "'");
        if (pv->kind != JsonValue::Kind::Array || pv->array.empty())
            throw std::invalid_argument(
                "points must be a non-empty array");
        for (const JsonValue &e : pv->array) {
            SweepPoint p;
            p.bench = canonicalBenchSpec(e.at("bench").asString());
            p.cfg = SimConfig::fromSpec(e.at("spec").asString());
            const std::string &layout = e.at("layout").asString();
            if (layout != "opt" && layout != "base")
                throw std::invalid_argument(
                    "layout must be 'base' or 'opt'");
            p.cfg.width = width(e.at("width"));
            p.cfg.optimizedLayout = layout != "base";
            p.cfg.insts =
                static_cast<InstCount>(e.at("insts").asU64());
            p.cfg.warmupInsts =
                static_cast<InstCount>(e.at("warmup").asU64());
            if (p.cfg.insts == 0)
                throw std::invalid_argument("insts must be positive");
            if (std::find(job->benches.begin(), job->benches.end(),
                          p.bench) == job->benches.end())
                job->benches.push_back(p.bench);
            job->points.push_back(std::move(p));
        }
    } else {
        CliOptions opts;
        opts.insts = 1'000'000;
        if (const JsonValue *v = req.find("insts"))
            opts.insts = static_cast<InstCount>(v->asU64());
        if (const JsonValue *v = req.find("warmup")) {
            opts.warmupInsts = static_cast<InstCount>(v->asU64());
            opts.warmupSet = true;
        }
        if (opts.insts == 0)
            throw std::invalid_argument("insts must be positive");

        std::vector<unsigned> widths;
        if (const JsonValue *v = req.find("widths")) {
            if (v->kind == JsonValue::Kind::Array)
                for (const JsonValue &e : v->array)
                    widths.push_back(width(e));
            else
                widths.push_back(width(*v));
        }
        if (widths.empty())
            widths.push_back(8);

        const std::string layout = text("layout", "opt");
        if (layout != "opt" && layout != "base")
            throw std::invalid_argument(
                "layout must be 'base' or 'opt'");
        const bool optimized = layout != "base";

        std::vector<std::string> benches =
            resolveBenches(parseBenchSpecList(text("bench", "gcc")));
        std::vector<SimConfig> archs =
            parseArchSpecList(text("arch", "stream"));
        std::vector<SimConfig> cfgs;
        for (unsigned w : widths)
            for (const SimConfig &arch : archs)
                cfgs.push_back(opts.stamped(arch, w, optimized));

        job->points = SweepDriver::grid(benches, cfgs);
        job->benches = std::move(benches);
    }
    job->pointCount = job->points.size();
    job->sweepJobs = cfg_.defaultSweepJobs;
    if (const JsonValue *v = req.find("jobs"))
        job->sweepJobs = static_cast<unsigned>(v->asU64());

    const std::string arena = text("arena", "auto");
    if (arena == "auto")
        job->arenaWanted = Job::Arena::Auto;
    else if (arena == "off")
        job->arenaWanted = Job::Arena::Off;
    else if (arena == "require")
        job->arenaWanted = Job::Arena::Require;
    else
        throw std::invalid_argument(
            "arena must be 'auto', 'off' or 'require'");
    job->estArenaBytes = estimateArenaBytes(job->points);
    return job;
}

namespace
{

const char *
jobStateName(int state_ord)
{
    switch (state_ord) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "cancelled";
    case 4: return "failed";
    case 5: return "stuck";
    }
    return "unknown";
}

} // namespace

void
Server::handleSubmit(const JsonValue &req, const std::string &line,
                     LineChannel &ch)
{
    // Token idempotency first: a resubmit of a known token must
    // never create (or be rejected as) a second job. A never-
    // attached job — recovered from the journal after a crash — is
    // *attached*: its buffered rows and all future ones stream to
    // this connection. Anything else is a duplicate: one summary
    // line, no second run.
    std::string token;
    if (const JsonValue *t = req.find("token")) {
        if (t->kind != JsonValue::Kind::String) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(
                errorReply("bad_spec", "token must be a string"));
            return;
        }
        token = t->string;
    }
    if (!token.empty()) {
        std::shared_ptr<Job> existing;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = tokens_.find(token);
            if (it != tokens_.end()) {
                auto jt = jobs_.find(it->second);
                if (jt != jobs_.end())
                    existing = jt->second;
            }
        }
        if (existing) {
            bool attach = false;
            {
                std::lock_guard<std::mutex> lock(existing->mu);
                if (!existing->everAttached) {
                    existing->everAttached = true;
                    attach = true;
                }
            }
            if (attach) {
                log("job " + std::to_string(existing->id) +
                    ": token '" + token + "' reattached");
                JsonObjectWriter w;
                w.field("ok", true)
                    .field("job", existing->id)
                    .field("points", static_cast<std::uint64_t>(
                                         existing->pointCount))
                    .field("attached", true);
                if (!ch.writeLine(w.str()) ||
                    !streamJob(existing, ch))
                    existing->cancel = true;
            } else {
                JsonObjectWriter w;
                w.field("ok", true)
                    .field("job", existing->id)
                    .field("duplicate", true)
                    .field("state",
                           jobStateName(static_cast<int>(
                               existing->state.load())))
                    .field("points_done",
                           existing->pointsDone.load())
                    .field("of", static_cast<std::uint64_t>(
                                     existing->pointCount))
                    .field("done", true);
                ch.writeLine(w.str());
            }
            return;
        }
    }

    // Field extraction and spec parsing — all failures here are the
    // client's ("bad_spec"), reported without touching daemon state.
    std::shared_ptr<Job> job;
    try {
        job = makeJob(req);
    } catch (const std::exception &e) {
        jobsRejected_.fetch_add(1);
        ch.writeLine(errorReply("bad_spec", e.what()));
        return;
    }
    job->token = token;
    job->specJson = line;
    job->clientId = ch.peerId();

    // Admission control.
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(errorReply("draining",
                                    "daemon is shutting down"));
            return;
        }
        if (job->pointCount == 0) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(
                errorReply("bad_spec", "submit expands to 0 points"));
            return;
        }
        if (job->pointCount > cfg_.maxPointsPerJob) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(errorReply(
                "max_points_per_job",
                "submit expands to " +
                    std::to_string(job->pointCount) +
                    " points, cap is " +
                    std::to_string(cfg_.maxPointsPerJob)));
            return;
        }
        std::size_t active = 0, mine = 0;
        for (const auto &[id, j] : jobs_) {
            JobState s = j->state.load();
            if (s != JobState::Queued && s != JobState::Running)
                continue;
            ++active;
            if (!job->clientId.empty() &&
                j->clientId == job->clientId)
                ++mine;
        }
        if (active >= cfg_.maxJobs) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(errorReply(
                "queue_full", std::to_string(active) +
                                  " jobs active, cap is " +
                                  std::to_string(cfg_.maxJobs)));
            return;
        }
        if (cfg_.maxJobsPerClient != 0 &&
            mine >= cfg_.maxJobsPerClient) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(errorReply(
                "over_quota",
                "client has " + std::to_string(mine) +
                    " active jobs, per-client cap is " +
                    std::to_string(cfg_.maxJobsPerClient)));
            return;
        }
        if (job->arenaWanted == Job::Arena::Require &&
            job->estArenaBytes > cfg_.memBudgetBytes) {
            jobsRejected_.fetch_add(1);
            ch.writeLine(errorReply(
                "over_budget",
                "arena estimate " +
                    std::to_string(job->estArenaBytes) +
                    " B exceeds budget " +
                    std::to_string(cfg_.memBudgetBytes) + " B"));
            return;
        }
        job->id = nextJobId_++;
        jobs_[job->id] = job;
        if (!job->token.empty())
            tokens_[job->token] = job->id;
        queue_.push_back(job);
    }
    if (journal_)
        journal_->submitted(job->id, job->token, job->specJson);
    jobsSubmitted_.fetch_add(1);
    queueCv_.notify_one();
    log("job " + std::to_string(job->id) + ": submitted, " +
        std::to_string(job->pointCount) + " points, arena est " +
        std::to_string(job->estArenaBytes >> 20) + " MiB");

    // Acknowledge, then stream until the job closes. `arena` here is
    // the plan (mode and budget permitting); the per-row framing
    // carries the governor's actual decision.
    {
        JsonObjectWriter w;
        w.field("ok", true)
            .field("job", job->id)
            .field("points",
                   static_cast<std::uint64_t>(job->pointCount))
            .field("arena",
                   job->arenaWanted != Job::Arena::Off &&
                       job->estArenaBytes > 0 &&
                       job->estArenaBytes <= cfg_.memBudgetBytes);
        if (!ch.writeLine(w.str())) {
            job->cancel = true;
            return;
        }
    }
    if (!streamJob(job, ch)) {
        // Peer vanished or stalled past the write deadline: stop
        // burning cycles on rows nobody will read.
        job->cancel = true;
    }
}

bool
Server::streamJob(const std::shared_ptr<Job> &job, LineChannel &ch)
{
    while (true) {
        std::string line;
        {
            std::unique_lock<std::mutex> lock(job->mu);
            job->cv.wait(lock, [&] {
                return job->closed || !job->out.empty();
            });
            if (job->out.empty())
                return true; // closed and fully drained
            line = std::move(job->out.front());
            job->out.pop_front();
        }
        if (!ch.writeLine(line)) {
            if (ch.timedOut())
                connTimeouts_.fetch_add(1);
            return false;
        }
    }
}

std::size_t
Server::recoverJobs()
{
    std::vector<RecoveredJob> prior = journal_->recover();
    std::vector<RecoveredJob> live;
    for (const RecoveredJob &rec : prior) {
        try {
            JsonValue req = JsonReader(rec.spec).parse();
            std::shared_ptr<Job> job = makeJob(req);
            job->token = rec.token;
            job->specJson = rec.spec;
            job->priorShards = rec.shards;
            // No consumer yet: buffer every row until the submitter
            // resubmits its token and attaches.
            job->everAttached = false;
            {
                std::lock_guard<std::mutex> lock(mu_);
                job->id = nextJobId_++;
                jobs_[job->id] = job;
                if (!job->token.empty())
                    tokens_[job->token] = job->id;
                queue_.push_back(job);
            }
            RecoveredJob renumbered = rec;
            renumbered.id = job->id;
            renumbered.started = false; // re-queued, re-runs whole
            live.push_back(std::move(renumbered));
            log("journal: job " + std::to_string(rec.id) +
                (rec.started ? " (was in flight)" : "") +
                " re-queued as job " + std::to_string(job->id));
        } catch (const std::exception &e) {
            log("journal: dropping unreplayable job " +
                std::to_string(rec.id) + ": " + e.what());
        }
    }
    journal_->reset(live);
    jobsRecovered_.fetch_add(live.size());
    return live.size();
}

std::string
Server::handleStatus(const JsonValue &req)
{
    std::shared_ptr<Job> job = findJob(req.at("job").asU64());
    if (!job)
        return errorReply("unknown_job", "no such job");
    JsonObjectWriter w;
    w.field("ok", true)
        .field("job", job->id)
        .field("state",
               jobStateName(static_cast<int>(job->state.load())))
        .field("points_done", job->pointsDone.load())
        .field("of", static_cast<std::uint64_t>(job->pointCount));
    return w.str();
}

std::string
Server::handleCancel(const JsonValue &req)
{
    std::shared_ptr<Job> job = findJob(req.at("job").asU64());
    if (!job)
        return errorReply("unknown_job", "no such job");
    JobState s = job->state.load();
    const bool live =
        s == JobState::Queued || s == JobState::Running;
    if (live)
        job->cancel = true;
    JsonObjectWriter w;
    w.field("ok", true).field("job", job->id).field("cancelled", live);
    return w.str();
}

namespace
{

/** Per-worker JSON array shared by the `workers` verb and stats. */
std::string
workersArrayJson(const std::vector<WorkerSnapshot> &workers)
{
    std::string out = "[";
    for (std::size_t i = 0; i < workers.size(); ++i) {
        const WorkerSnapshot &w = workers[i];
        JsonObjectWriter e;
        e.field("addr", w.addr)
            .field("state", workerStateName(w.state))
            .field("static", w.staticSeed)
            .field("probes", w.probes)
            .field("probe_failures", w.probeFailures)
            .field("transitions", w.transitions)
            .field("dispatch_failures", w.dispatchFailures)
            .field("dispatch_successes", w.dispatchSuccesses)
            .field("deaths", w.deaths)
            .field("consecutive_failures",
                   static_cast<std::uint64_t>(w.consecutiveFailures))
            .field("ewma_latency_ms", w.ewmaLatencyMs);
        if (w.haveHealth)
            e.field("queue_depth", w.queueDepth)
                .field("jobs_running", w.jobsRunning)
                .field("uptime_seconds", w.uptimeSeconds)
                .field("journal_degraded", w.journalDegraded);
        if (i)
            out += ", ";
        out += e.str();
    }
    out += "]";
    return out;
}

} // namespace

std::string
Server::handleWorkerMembership(const JsonValue &req, bool add)
{
    const JsonValue *wv = req.find("worker");
    if (!wv || wv->kind != JsonValue::Kind::String ||
        wv->string.empty())
        return errorReply("bad_spec",
                          std::string(add ? "register" : "deregister") +
                              " needs a string 'worker' address");
    const std::string addr = normalizeWorkerAddr(wv->string);
    if (add) {
        bool added;
        try {
            added = fleet_->registerWorker(addr);
        } catch (const std::exception &e) {
            return errorReply("bad_spec", e.what());
        }
        if (journal_)
            journal_->worker(addr, true);
        log(std::string("fleet: worker ") + addr +
            (added ? " registered" : " re-registered"));
        JsonObjectWriter w;
        w.field("ok", true)
            .field("worker", addr)
            .field("registered", true)
            .field("known", !added)
            .field("workers",
                   static_cast<std::uint64_t>(fleet_->size()));
        return w.str();
    }
    if (!fleet_->deregisterWorker(addr))
        return errorReply("unknown_worker",
                          "'" + addr + "' is not a fleet member");
    if (journal_)
        journal_->worker(addr, false);
    log("fleet: worker " + addr + " deregistered");
    JsonObjectWriter w;
    w.field("ok", true)
        .field("worker", addr)
        .field("registered", false)
        .field("workers", static_cast<std::uint64_t>(fleet_->size()));
    return w.str();
}

std::string
Server::handleWorkers() const
{
    const std::vector<WorkerSnapshot> workers = fleet_->snapshot();
    JsonObjectWriter w;
    w.field("ok", true)
        .field("workers_registered",
               static_cast<std::uint64_t>(workers.size()))
        .raw("workers", workersArrayJson(workers));
    return w.str();
}

void
Server::workerLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queueCv_.wait(lock, [this] {
                return stopping_.load() || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_, queue fully drained
            job = queue_.front();
            queue_.pop_front();
            job->lastProgressMs = nowMs();
            job->state = JobState::Running;
        }
        if (journal_)
            journal_->started(job->id);
        runJob(job);
    }
}

void
Server::watchdogLoop()
{
    const auto interval = std::chrono::milliseconds(
        std::max(cfg_.pointTimeoutMs / 4, 1));
    std::unique_lock<std::mutex> lock(watchdogMu_);
    while (!stopping_.load()) {
        watchdogCv_.wait_for(lock, interval);
        if (stopping_.load())
            return;
        std::vector<std::shared_ptr<Job>> overdue;
        const std::int64_t now = nowMs();
        {
            std::lock_guard<std::mutex> jobs_lock(mu_);
            for (const auto &[id, job] : jobs_)
                if (job->state.load() == JobState::Running &&
                    now - job->lastProgressMs.load() >
                        cfg_.pointTimeoutMs)
                    overdue.push_back(job);
        }
        for (const std::shared_ptr<Job> &job : overdue) {
            // The worker thread is captive inside the point (the
            // cooperative stop flag is only checked between points),
            // so retire the *job*: its admission slot frees now, its
            // consumer gets a terminal summary now, and the worker's
            // own finishJob becomes a no-op when the point finally
            // completes.
            job->cancel = true;
            finishJob(job, JobState::Stuck,
                      "point exceeded --point-timeout (" +
                          std::to_string(cfg_.pointTimeoutMs) +
                          " ms)",
                      0.0, false);
        }
    }
}

bool
Server::decideArena(const std::shared_ptr<Job> &job)
{
    if (job->arenaWanted == Job::Arena::Off ||
        job->estArenaBytes == 0)
        return false; // no >=2-point group: nothing to decode anyway
    const std::size_t budget = cfg_.memBudgetBytes;
    const std::size_t est = job->estArenaBytes;
    WorkloadCache &cache = WorkloadCache::instance();
    std::unique_lock<std::mutex> lock(govMu_);
    while (true) {
        // Make room: shrink the cache until (cache-resident) +
        // (reserved by running jobs) + (this job) fits the budget.
        const std::size_t reserved = reservedArenaBytes_;
        cache.evictToBudget(
            budget > reserved + est ? budget - reserved - est : 0);
        if (cache.bytesResident() + reserved + est <= budget) {
            reservedArenaBytes_ += est;
            job->reservedBytes = est;
            return true;
        }
        if (job->arenaWanted != Job::Arena::Require ||
            job->cancel.load() || stopping_.load()) {
            arenaFallbacks_.fetch_add(1);
            log("job " + std::to_string(job->id) +
                ": arena fallback (est " + std::to_string(est >> 20) +
                " MiB would exceed budget)");
            return false;
        }
        // Require within total budget: concurrent reservations are
        // the only obstruction, so wait for one to release.
        govCv_.wait_for(lock, std::chrono::milliseconds(100));
    }
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    if (job->cancel.load()) {
        finishJob(job, JobState::Cancelled, "", 0.0, false);
        return;
    }
    if (fleet_ && !fleet_->empty()) {
        // Front daemon: nothing is simulated here — the job fans
        // out across the worker fleet instead. The decision is per
        // job, so registering a first worker flips a local daemon
        // into a front for subsequent jobs (and deregistering the
        // last one flips it back).
        runJobSharded(job);
        std::lock_guard<std::mutex> lock(job->mu);
        job->points.clear();
        job->points.shrink_to_fit();
        return;
    }
    // Pin every workload for the duration of the run: the driver's
    // internal get() calls resolve to these same (now unevictable)
    // entries, so another job's governor can never pull a workload
    // out from under this sweep.
    std::vector<std::shared_ptr<const PlacedWorkload>> pins;
    bool used_arena = false;
    try {
        pins.reserve(job->benches.size());
        for (const std::string &bench : job->benches)
            pins.push_back(
                WorkloadCache::instance().getShared(bench));

        used_arena = decideArena(job);
        SweepDriver driver(job->sweepJobs);
        driver.setQuiet(true);
        driver.setArenaMode(used_arena);
        driver.setStopFlag(&job->cancel);
        ResultSet rs = driver.run(
            job->points,
            [&](const ResultRow &row, std::size_t point,
                std::size_t of) {
                job->pointsDone.fetch_add(1);
                job->lastProgressMs = nowMs();
                rowsStreamed_.fetch_add(1);
                JsonObjectWriter w;
                w.field("job", job->id)
                    .field("point",
                           static_cast<std::uint64_t>(point))
                    .field("of", static_cast<std::uint64_t>(of))
                    .field("arena", used_arena)
                    .raw("row", rowJson(row));
                pushLine(job, w.str());
            });
        releaseReservation(job);
        finishJob(job,
                  job->cancel.load() ? JobState::Cancelled
                                     : JobState::Done,
                  "", rs.wallSeconds(), used_arena);
    } catch (const std::exception &e) {
        releaseReservation(job);
        finishJob(job, JobState::Failed, e.what(), 0.0, used_arena);
    }
    // The sweep is over (only now is the grid certain to be idle —
    // a watchdog finalize can land while the driver still runs, so
    // finishJob itself must not touch `points`); drop it so finished
    // jobs parked in jobs_ for status queries cost bytes, not
    // megabytes.
    std::lock_guard<std::mutex> lock(job->mu);
    job->points.clear();
    job->points.shrink_to_fit();
}

namespace
{

/**
 * The raw `"row": {...}` payload of a worker row frame. The framing
 * always writes "row" last (the same invariant journal recovery
 * leans on for "spec"), so the payload is the tail of the line minus
 * the frame's own closing brace. Returning the worker's bytes
 * verbatim — never re-rendered — is what makes the merged stream
 * bit-identical to a local run.
 */
std::string
rowPayloadOf(const std::string &frame)
{
    static constexpr char kKey[] = "\"row\": ";
    const std::size_t at = frame.find(kKey);
    if (at == std::string::npos)
        return {};
    std::string payload = frame.substr(at + sizeof(kKey) - 1);
    if (payload.empty() || payload.back() != '}')
        return {};
    payload.pop_back();
    return payload;
}

const char *
arenaModeName(int arena_wanted_ord)
{
    switch (arena_wanted_ord) {
    case 1: return "off";
    case 2: return "require";
    }
    return "auto";
}

/** The shard's submit request: the explicit `"points"` form over the
 * chosen subset, run single-threaded so the worker streams rows in
 * shard order. */
std::string
shardSubmitJson(const std::vector<SweepPoint> &points,
                const std::vector<std::size_t> &indices,
                const std::string &token, const char *arena_mode)
{
    std::string pts = "[";
    for (std::size_t k = 0; k < indices.size(); ++k) {
        const SweepPoint &p = points[indices[k]];
        JsonObjectWriter pw;
        pw.field("bench", p.bench)
            .field("spec", p.cfg.specText())
            .field("width", static_cast<std::uint64_t>(p.cfg.width))
            .field("layout", p.cfg.optimizedLayout ? "opt" : "base")
            .field("insts", static_cast<std::uint64_t>(p.cfg.insts))
            .field("warmup",
                   static_cast<std::uint64_t>(p.cfg.warmupInsts));
        if (k)
            pts += ", ";
        pts += pw.str();
    }
    pts += "]";
    JsonObjectWriter w;
    w.field("verb", "submit");
    w.raw("points", pts);
    w.field("jobs", static_cast<std::uint64_t>(1));
    w.field("arena", arena_mode);
    if (!token.empty())
        w.field("token", token);
    return w.str();
}

/** FNV-1a over a shard's identity (worker address + global indices +
 * grid size), folded into shard tokens so a token can only ever
 * attach to a job with exactly this slice on exactly this worker. */
std::uint64_t
shardSliceHash(const std::string &worker,
               const std::vector<std::size_t> &indices,
               std::size_t total)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (char c : worker) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    mix(total);
    for (std::size_t i : indices)
        mix(i);
    return h;
}

} // namespace

void
Server::runJobSharded(const std::shared_ptr<Job> &job)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t total = job->pointCount;

    // The fleet as of job start. A worker registered mid-job joins
    // at the next job; one deregistered mid-job just stops being
    // usable() (its pump parks until the job ends).
    const std::vector<std::string> members = fleet_->members();
    if (members.empty()) {
        finishJob(job, JobState::Failed,
                  std::to_string(total) + " of " +
                      std::to_string(total) +
                      " point(s) undeliverable (fleet is empty)",
                  0.0, false);
        return;
    }

    /** One contiguous slice of the grid, the unit of work stealing. */
    struct Chunk
    {
        std::vector<std::size_t> indices; //!< global point indices
        unsigned attempts = 0; //!< stream losses survived so far
    };

    // One lock guards the chunk queue, the merge state and the
    // in-flight accounting: pumps (consumers of chunks, producers of
    // rows) and this worker thread (the emitter) all meet here. Rows
    // land in `ready` keyed by global point index; emission advances
    // strictly in index order, so the client-observed stream has
    // point order no matter how chunks land on workers.
    struct Dispatch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Chunk> queue;
        std::map<std::size_t, std::string> ready;
        std::vector<char> delivered;
        std::size_t next = 0;  //!< next global index to emit
        std::size_t deliveredCount = 0;
        unsigned inFlight = 0; //!< chunks on a wire right now
        unsigned chunkSeq = 0; //!< journal shard numbering
        bool failed = false;   //!< structural-failure latch
        std::string failReason;
        bool allArena = true;
    } d;
    d.delivered.assign(total, 0);

    const std::size_t chunkPts =
        std::max<std::size_t>(cfg_.chunkPoints, 1);
    for (std::size_t at = 0; at < total; at += chunkPts) {
        Chunk c;
        for (std::size_t i = at;
             i < std::min(at + chunkPts, total); ++i)
            c.indices.push_back(i);
        d.queue.push_back(std::move(c));
    }

    // Shard tokens: deterministic from the client token (so a
    // restarted front re-derives them and re-attaches to worker jobs
    // that are still running) plus the slice hash (so a token can
    // never attach to a differently-sliced job).
    const std::string tokenBase =
        "sfo." + (job->token.empty()
                      ? "j" + std::to_string(job->id)
                      : job->token);

    // Dispatch one chunk to one worker. Returns true when every
    // point was delivered (failures requeue their undelivered rest).
    auto runChunk = [&](const std::string &addr, Chunk chunk) {
        unsigned seq;
        {
            std::lock_guard<std::mutex> lock(d.mu);
            seq = d.chunkSeq++;
        }
        const std::uint64_t h =
            shardSliceHash(addr, chunk.indices, total);
        std::string token = tokenBase + ".g" +
                            std::to_string(chunk.attempts) + ".s" +
                            std::to_string(seq) + ".h" +
                            std::to_string(h);
        // A journalled dispatch of this same slice to this same
        // worker carries the token of a job the worker may still be
        // running: reuse it and attach instead of re-simulating.
        // (Generation/sequence are ignored — chunk-to-worker
        // assignment is nondeterministic under work stealing, so
        // only the (worker, slice) identity is stable.)
        const std::string suffix = ".h" + std::to_string(h);
        for (const ShardRecord &rec : job->priorShards)
            if (rec.worker == addr &&
                rec.token.size() > suffix.size() &&
                rec.token.compare(rec.token.size() - suffix.size(),
                                  suffix.size(), suffix) == 0)
                token = rec.token;
        if (journal_)
            journal_->shard(job->id, chunk.attempts, seq, addr,
                            token);
        shardsDispatched_.fetch_add(1);
        if (chunk.attempts > 0) {
            shardRetries_.fetch_add(1);
            pointsRedispatched_.fetch_add(chunk.indices.size());
            log("job " + std::to_string(job->id) +
                ": re-dispatching " +
                std::to_string(chunk.indices.size()) +
                " point(s) to " + addr + " (attempt " +
                std::to_string(chunk.attempts + 1) + ")");
        }
        bool connected = false;
        try {
            ServeClient::ConnectRetry retry;
            retry.retries = cfg_.workerRetries;
            retry.baseDelayMs = cfg_.workerRetryDelayMs;
            retry.maxDelayMs = cfg_.workerRetryMaxDelayMs;
            retry.connectTimeoutMs = cfg_.probeTimeoutMs;
            retry.seed = job->id * 1315423911ull + seq + 1;
            ServeClient wc(addr, retry);
            if (cfg_.pointTimeoutMs > 0)
                wc.setReadTimeout(cfg_.pointTimeoutMs);
            connected = true;
            wc.submitStream(
                shardSubmitJson(
                    job->points, chunk.indices, token,
                    arenaModeName(
                        static_cast<int>(job->arenaWanted))),
                [&](const JsonValue &parsed, const std::string &raw) {
                    if (job->cancel.load())
                        return false;
                    const JsonValue *pt = parsed.find("point");
                    if (!pt || !parsed.find("row"))
                        return true; // summary/terminator frame
                    const std::size_t local =
                        static_cast<std::size_t>(pt->asU64());
                    if (local >= chunk.indices.size())
                        return false; // not our framing: bail
                    const std::size_t g = chunk.indices[local];
                    bool arena = false;
                    if (const JsonValue *a = parsed.find("arena"))
                        arena = a->kind == JsonValue::Kind::Bool &&
                                a->boolean;
                    std::string payload = rowPayloadOf(raw);
                    if (payload.empty())
                        return false;
                    JsonObjectWriter w;
                    w.field("job", job->id)
                        .field("point",
                               static_cast<std::uint64_t>(g))
                        .field("of",
                               static_cast<std::uint64_t>(total))
                        .field("arena", arena)
                        .raw("row", payload);
                    // Progress means delivery, not emission: a row
                    // parked behind an undelivered gap must still
                    // hold the watchdog off.
                    job->lastProgressMs = nowMs();
                    std::lock_guard<std::mutex> lock(d.mu);
                    if (!d.delivered[g]) {
                        d.delivered[g] = 1;
                        ++d.deliveredCount;
                        d.ready[g] = w.str();
                        if (!arena)
                            d.allArena = false;
                        d.cv.notify_all();
                    }
                    return true;
                });
        } catch (const std::exception &e) {
            log("job " + std::to_string(job->id) + ": chunk on " +
                addr + " failed: " + e.what());
        }
        if (job->cancel.load())
            return true; // lost rows are moot; don't blame anyone
        Chunk rest;
        {
            std::lock_guard<std::mutex> lock(d.mu);
            for (std::size_t g : chunk.indices)
                if (!d.delivered[g])
                    rest.indices.push_back(g);
        }
        if (rest.indices.empty()) {
            fleet_->reportDispatchSuccess(addr);
            return true;
        }
        // Health evidence: a failed dispatch demotes the worker just
        // like a failed probe, so a dying worker stops pulling work
        // (usable() goes false at dead) without any job-level state.
        fleet_->reportDispatchFailure(addr);
        // A connect-level failure never reached the worker: requeue
        // at no cost to the chunk's attempt budget — the worker's
        // own march to `dead` is what bounds futile re-dispatch. A
        // stream-level failure (connected, then lost rows) spends an
        // attempt; a chunk that exhausts cfg_.shardRetries stream
        // losses fails the job structurally.
        rest.attempts = chunk.attempts + (connected ? 1 : 0);
        {
            std::lock_guard<std::mutex> lock(d.mu);
            if (connected && rest.attempts > cfg_.shardRetries) {
                d.failed = true;
                d.failReason =
                    "chunk lost its stream " +
                    std::to_string(rest.attempts) +
                    " time(s), retry budget is " +
                    std::to_string(cfg_.shardRetries);
            } else {
                // Front of the queue: these points gate the in-order
                // merge, so they go back on a wire first.
                d.queue.push_front(std::move(rest));
            }
        }
        // A requeue is progress too: the job is being repaired, not
        // stuck, so the watchdog clock resets.
        job->lastProgressMs = nowMs();
        d.cv.notify_all();
        return false;
    };

    // One pump per fleet member: pull a chunk when the worker is
    // usable and the queue is non-empty, park otherwise. An idle
    // healthy pump steals naturally — the queue is shared.
    auto pump = [&](const std::string &addr) {
        bool backoff = false;
        while (true) {
            Chunk c;
            {
                std::unique_lock<std::mutex> lock(d.mu);
                if (backoff) {
                    // After this worker's own failed dispatch, yield
                    // for a beat: the requeue's notify wakes idle
                    // healthy pumps, which should win the re-grab.
                    d.cv.wait_for(lock,
                                  std::chrono::milliseconds(150));
                    backoff = false;
                }
                while (true) {
                    if (job->cancel.load() || d.failed ||
                        d.deliveredCount == total)
                        return;
                    if (!d.queue.empty()) {
                        if (fleet_->usable(addr)) {
                            c = std::move(d.queue.front());
                            d.queue.pop_front();
                            ++d.inFlight;
                            break;
                        }
                        // Work remains, nothing is in flight, and no
                        // member of the job's fleet can take it: the
                        // job is structurally stuck — fail it now
                        // rather than spin until the watchdog.
                        if (d.inFlight == 0 &&
                            !fleet_->anyUsable(members)) {
                            d.failed = true;
                            d.failReason =
                                "all " +
                                std::to_string(members.size()) +
                                " worker(s) dead";
                            d.cv.notify_all();
                            return;
                        }
                    }
                    d.cv.wait_for(lock,
                                  std::chrono::milliseconds(50));
                }
            }
            const bool clean = runChunk(addr, std::move(c));
            {
                std::lock_guard<std::mutex> lock(d.mu);
                --d.inFlight;
            }
            d.cv.notify_all();
            backoff = !clean;
        }
    };

    std::vector<std::thread> pumps;
    pumps.reserve(members.size());
    for (const std::string &addr : members)
        pumps.emplace_back(pump, addr);

    // Emit merged rows in global point order while the pumps stream.
    // A gap left by a lost chunk blocks emission past it; later rows
    // wait in `ready` until the re-dispatched chunk fills the gap.
    while (true) {
        std::vector<std::string> lines;
        bool finished = false;
        {
            std::unique_lock<std::mutex> lock(d.mu);
            d.cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
                return job->cancel.load() || d.failed ||
                       d.ready.count(d.next) != 0 ||
                       d.deliveredCount == total;
            });
            for (auto it = d.ready.find(d.next); it != d.ready.end();
                 it = d.ready.find(d.next)) {
                lines.push_back(std::move(it->second));
                d.ready.erase(it);
                ++d.next;
            }
            finished = d.next == total || d.failed ||
                       job->cancel.load();
        }
        for (std::string &l : lines) {
            job->pointsDone.fetch_add(1);
            job->lastProgressMs = nowMs();
            rowsStreamed_.fetch_add(1);
            pushLine(job, std::move(l));
        }
        if (finished)
            break;
    }
    d.cv.notify_all();
    for (std::thread &t : pumps)
        t.join();

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    bool allArena, failed;
    std::size_t undelivered;
    std::string reason;
    {
        std::lock_guard<std::mutex> lock(d.mu);
        allArena = d.allArena && d.next == total;
        failed = d.failed;
        undelivered = total - d.next;
        reason = d.failReason;
    }
    if (job->cancel.load())
        finishJob(job, JobState::Cancelled, "", wall, false);
    else if (!failed && undelivered == 0)
        finishJob(job, JobState::Done, "", wall, allArena);
    else
        finishJob(job, JobState::Failed,
                  std::to_string(undelivered) + " of " +
                      std::to_string(total) +
                      " point(s) undeliverable" +
                      (reason.empty() ? "" : " (" + reason + ")"),
                  wall, false);
}

void
Server::releaseReservation(const std::shared_ptr<Job> &job)
{
    if (job->reservedBytes == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(govMu_);
        reservedArenaBytes_ -= job->reservedBytes;
        job->reservedBytes = 0;
    }
    govCv_.notify_all();
}

void
Server::pushLine(const std::shared_ptr<Job> &job, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(job->mu);
        job->out.push_back(std::move(line));
    }
    job->cv.notify_all();
}

void
Server::finishJob(const std::shared_ptr<Job> &job, JobState state,
                  const std::string &error, double wall_seconds,
                  bool used_arena)
{
    // First finalizer wins: normally the worker, but the watchdog
    // retires a stuck job while its worker is still captive in the
    // point, and the worker's eventual call must then change nothing.
    bool expected = false;
    if (!job->finalized.compare_exchange_strong(expected, true))
        return;
    job->state = state;
    const char *name = "done";
    switch (state) {
    case JobState::Done:
        jobsServed_.fetch_add(1);
        break;
    case JobState::Cancelled:
        name = "cancelled";
        jobsCancelled_.fetch_add(1);
        break;
    case JobState::Failed:
        name = "failed";
        jobsFailed_.fetch_add(1);
        break;
    case JobState::Stuck:
        name = "stuck";
        jobsStuck_.fetch_add(1);
        break;
    default:
        break;
    }
    if (journal_)
        journal_->finished(job->id, name);
    JsonObjectWriter w;
    w.field("job", job->id)
        .field("done", true)
        .field("state", name)
        .field("points_done", job->pointsDone.load())
        .field("of", static_cast<std::uint64_t>(job->pointCount))
        .field("arena", used_arena)
        .field("wall_seconds", wall_seconds);
    if (!error.empty())
        w.field("error", error);
    pushLine(job, w.str());
    {
        std::lock_guard<std::mutex> lock(job->mu);
        job->closed = true;
    }
    job->cv.notify_all();
    log("job " + std::to_string(job->id) + ": " + name + " (" +
        std::to_string(job->pointsDone.load()) + "/" +
        std::to_string(job->pointCount) + " points)");
}

std::shared_ptr<Server::Job>
Server::findJob(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

ServeStats
Server::stats() const
{
    ServeStats s;
    s.jobsSubmitted = jobsSubmitted_.load();
    s.jobsServed = jobsServed_.load();
    s.jobsRejected = jobsRejected_.load();
    s.jobsCancelled = jobsCancelled_.load();
    s.jobsFailed = jobsFailed_.load();
    s.jobsStuck = jobsStuck_.load();
    s.jobsRecovered = jobsRecovered_.load();
    s.rowsStreamed = rowsStreamed_.load();
    s.arenaFallbacks = arenaFallbacks_.load();
    s.shardsDispatched = shardsDispatched_.load();
    s.shardRetries = shardRetries_.load();
    s.pointsRedispatched = pointsRedispatched_.load();
    if (fleet_) {
        const FleetTotals t = fleet_->totals();
        s.workersRegistered = t.members;
        s.workersAlive = t.alive;
        s.workersSuspect = t.suspect;
        s.workersDead = t.dead;
        s.workersRecovering = t.recovering;
        s.workerDeaths = t.workerDeaths;
        s.probesSent = t.probesSent;
        s.probeFailures = t.probeFailures;
    }
    s.connsRejected = connsRejected_.load();
    s.connTimeouts = connTimeouts_.load();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[id, job] : jobs_) {
            JobState st = job->state.load();
            if (st == JobState::Queued)
                ++s.jobsQueued;
            else if (st == JobState::Running)
                ++s.jobsRunning;
        }
    }
    {
        std::lock_guard<std::mutex> lock(connMu_);
        s.connsActive = conns_.size();
    }
    WorkloadCache &cache = WorkloadCache::instance();
    s.cacheHits = cache.hits();
    s.cacheMisses = cache.misses();
    s.cacheEvictions = cache.evictions();
    s.residentArenaBytes = cache.bytesResident();
    s.liveArenaBytes = OracleArena::liveBytes();
    s.memBudgetBytes = cfg_.memBudgetBytes;
    s.journalDegraded = journal_ && journal_->degraded();
    return s;
}

std::string
Server::statsJson() const
{
    ServeStats s = stats();
    JsonObjectWriter w;
    w.field("ok", true)
        .field("jobs_submitted", s.jobsSubmitted)
        .field("jobs_served", s.jobsServed)
        .field("jobs_rejected", s.jobsRejected)
        .field("jobs_cancelled", s.jobsCancelled)
        .field("jobs_failed", s.jobsFailed)
        .field("jobs_stuck", s.jobsStuck)
        .field("jobs_recovered", s.jobsRecovered)
        .field("jobs_queued", s.jobsQueued)
        .field("jobs_running", s.jobsRunning)
        .field("rows_streamed", s.rowsStreamed)
        .field("arena_fallbacks", s.arenaFallbacks)
        .field("workers_configured",
               static_cast<std::uint64_t>(cfg_.workerAddrs.size()))
        .field("workers_registered", s.workersRegistered)
        .field("workers_alive", s.workersAlive)
        .field("workers_suspect", s.workersSuspect)
        .field("workers_dead", s.workersDead)
        .field("workers_recovering", s.workersRecovering)
        .field("worker_deaths", s.workerDeaths)
        .field("probes_sent", s.probesSent)
        .field("probe_failures", s.probeFailures)
        .field("shards_dispatched", s.shardsDispatched)
        .field("shard_retries", s.shardRetries)
        .field("points_redispatched", s.pointsRedispatched)
        .field("conns_active", s.connsActive)
        .field("conns_rejected", s.connsRejected)
        .field("conn_timeouts", s.connTimeouts)
        .field("cache_hits", s.cacheHits)
        .field("cache_misses", s.cacheMisses)
        .field("cache_evictions", s.cacheEvictions)
        .field("resident_arena_bytes",
               static_cast<std::uint64_t>(s.residentArenaBytes))
        .field("live_arena_bytes",
               static_cast<std::uint64_t>(s.liveArenaBytes))
        .field("mem_budget_bytes",
               static_cast<std::uint64_t>(s.memBudgetBytes))
        .field("journal_degraded", s.journalDegraded)
        .raw("workers", fleet_ ? workersArrayJson(fleet_->snapshot())
                               : std::string("[]"));
    return w.str();
}

void
Server::log(const std::string &msg) const
{
    if (!cfg_.quiet)
        std::fprintf(stderr, "[sfetchd] %s\n", msg.c_str());
}

} // namespace sfetch
