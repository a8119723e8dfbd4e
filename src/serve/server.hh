/**
 * @file
 * sfetchd's engine room: a resident simulation service wrapping
 * SweepDriver behind a stream socket (Unix-domain or TCP — see
 * serve/socket_io's address grammar) speaking line-delimited JSON.
 * One-shot bench binaries rebuild workloads and arenas from scratch
 * on every invocation; the daemon amortizes them across requests
 * under an explicit memory budget.
 *
 * Protocol (one JSON object per line, both directions):
 *
 *   {"verb":"submit","bench":"gzip,loops","arch":"stream,ev8",
 *    "insts":50000,"warmup":10000,"widths":[4,8],"layout":"opt",
 *    "jobs":1,"arena":"auto","token":"nightly-42"}
 *     -> {"ok":true,"job":1,"points":8,"arena":true}
 *     -> one framed row per finished sweep point, as it finishes:
 *        {"job":1,"point":0,"of":8,"arena":true,"row":{...}}
 *        where "row" is exactly ResultSet's per-row JSON (rowJson)
 *     -> a summary terminator:
 *        {"job":1,"done":true,"state":"done","points_done":8,
 *         "of":8,"arena":true,"wall_seconds":...}
 *   {"verb":"status","job":1}   -> state + points_done/of
 *   {"verb":"cancel","job":1}   -> cancels a queued or running job
 *   {"verb":"stats"}            -> cumulative counters (see below)
 *   {"verb":"health"}           -> liveness + queue depth
 *   {"verb":"shutdown","drain":true} -> ack, then begin shutdown
 *
 * Errors are structured and non-fatal to the connection:
 *   {"ok":false,"reason":"bad_json|unknown_verb|bad_spec|queue_full|
 *    max_points_per_job|over_budget|over_quota|busy|timeout|
 *    unknown_job|draining", "error":"<human readable>"}
 *
 * Admission control: at most maxJobs jobs queued+running (reject
 * "queue_full"), at most maxPointsPerJob points per submit (reject
 * "max_points_per_job"), at most maxJobsPerClient active jobs per
 * client identity (SO_PEERCRED; reject "over_quota"), at most
 * maxConns concurrent connections (reject "busy"). Memory governor:
 * each submit's arena cost is pre-estimated from the arena formula
 * (kArenaBytesPerInstEstimate per instruction, per >=2-point decode
 * group); a job whose estimate cannot fit even an empty cache is
 * rejected "over_budget" when it demands arenas ("arena":"require"),
 * and otherwise the governor first evicts single-layout arenas (then
 * whole workloads) LRU-first, then falls back to per-run private
 * windows of bounded size ("arena":false in the framing) — the
 * budget is never exceeded to satisfy a decode. Rows are
 * bit-identical either way.
 *
 * Fault tolerance: with a --state-dir, every submit/start/finish is
 * journalled (serve/journal.hh) and unfinished jobs are re-queued on
 * restart; a client that tagged its submit with a "token" can
 * resubmit the same token after a daemon crash and either *attach*
 * to the recovered job's stream (every row is buffered for exactly
 * this purpose) or, if the job already streamed to someone, get a
 * one-line duplicate summary. Connections carry idle/write deadlines
 * ("timeout"), and a watchdog retires jobs whose current point
 * exceeds --point-timeout as "stuck", freeing their admission slot.
 *
 * Ordering: rows stream in completion order, which equals point
 * order when the job's sweep runs single-threaded ("jobs":1, the
 * default); the framing always carries the point index.
 *
 * Multi-node fan-out: a daemon whose worker *fleet* is non-empty —
 * seeded from ServeConfig::workerAddrs / `sfetchd --worker`, grown
 * and shrunk at runtime by the `register`/`deregister` verbs
 * (journalled as `worker` records, so a restarted front recovers
 * its fleet) — is a *front*: it accepts the same protocol, but
 * instead of simulating, it fans each job's points out across the
 * workers using the submit protocol's explicit `"points"` form —
 *
 *   {"verb":"submit","points":[{"bench":"gzip","spec":"stream",
 *    "width":8,"layout":"opt","insts":50000,"warmup":10000},...]}
 *
 * — then merges the workers' row streams back into one stream in
 * global point order, re-framed under the front's job id. Because a
 * worker runs its shard single-threaded in shard order and rows are
 * raw JSON passed through verbatim, the merged stream is
 * bit-identical to a single-daemon run of the same submit.
 *
 * Dispatch is *work-stealing*: the job's points are cut into
 * contiguous chunks of ServeConfig::chunkPoints, and one persistent
 * pump thread per fleet member pulls the next chunk whenever its
 * worker is idle — fast workers naturally steal load from slow
 * ones, and there is no generation barrier to stall behind. A chunk
 * whose worker dies or stalls mid-stream returns its undelivered
 * points to the front of the queue immediately (attempt count + 1,
 * structural failure once a chunk's stream breaks more than
 * shardRetries times); a dispatch that never connects re-queues
 * without burning an attempt and instead feeds the fleet health
 * state machine (serve/fleet.hh) — only `dead` workers are excluded
 * from pulls, and the job fails structurally when every member is
 * dead with points still undelivered. Chunk dispatches are
 * journalled (`shard` records) under slice-hashed idempotency
 * tokens so a restarted front re-attaches to still-running worker
 * jobs instead of re-simulating.
 *
 * Fleet health: a background prober drives each member through
 * alive -> suspect -> dead -> recovering from `health`-verb probes
 * (--probe-interval / --probe-timeout) and dispatch evidence; the
 * `workers` verb and the stats output expose per-worker state,
 * probe/dispatch counters, and EWMA probe latency.
 */

#ifndef SFETCH_SERVE_SERVER_HH
#define SFETCH_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/driver.hh"

namespace sfetch
{

class LineChannel;
class JobJournal;
class FleetManager;
struct JsonValue;

/** Daemon knobs (the sfetchd command line maps 1:1 onto these). */
struct ServeConfig
{
    /**
     * Listen address: `unix:PATH`, `tcp:HOST:PORT` (port 0 binds an
     * ephemeral port — Server::listenAddress() reports the real
     * one), or a bare Unix socket path.
     */
    std::string socketPath = "/tmp/sfetchd.sock";
    /**
     * Worker-daemon addresses (`tcp:HOST:PORT` / `unix:PATH`) that
     * seed the fleet. When the fleet is non-empty (static seeds
     * and/or runtime `register` verbs) this daemon is a multi-node
     * *front*: every submitted sweep is split across the workers and
     * the row streams merged back in point order, bit-identical to a
     * local run.
     */
    std::vector<std::string> workerAddrs;
    /** Extra stream-loss re-dispatches per chunk: a chunk whose
     * worker connection broke mid-stream more than this many times
     * fails the job structurally. */
    unsigned shardRetries = 2;
    /** Front mode: sweep points per work-stealing chunk. Small
     * chunks spread load and shrink what a dying worker can lose;
     * large chunks amortize per-dispatch overhead. */
    std::size_t chunkPoints = 4;
    /** Fleet heartbeat period per worker, ms; <=0 disables the
     * background prober. */
    int probeIntervalMs = 1000;
    /** Connect + reply deadline for one heartbeat probe, ms. */
    int probeTimeoutMs = 1000;
    /** Connect retries per chunk dispatch towards a worker. */
    int workerRetries = 4;
    /** First-retry backoff for chunk dispatch connects, ms. */
    int workerRetryDelayMs = 25;
    /** Backoff cap for chunk dispatch connects, ms. */
    int workerRetryMaxDelayMs = 400;
    /** Worker threads = jobs simulating concurrently. 0 picks
     * hardware_concurrency(). */
    unsigned workers = 1;
    /** Admission cap on jobs queued + running. */
    std::size_t maxJobs = 8;
    /** Admission cap on sweep points per submit. */
    std::size_t maxPointsPerJob = 256;
    /** Memory budget governing cached/decoded arena bytes. */
    std::size_t memBudgetBytes = std::size_t(256) << 20;
    /** Default per-job sweep threads when a submit omits "jobs". */
    unsigned defaultSweepJobs = 1;
    /** Suppress per-event logging to stderr. */
    bool quiet = false;

    /** Journal directory; "" disables persistence. */
    std::string stateDir;
    /** Per-request read deadline on connections, ms; 0 = none. */
    int idleTimeoutMs = 0;
    /** Per-line write deadline towards consumers, ms; 0 = none. */
    int writeTimeoutMs = 0;
    /** Watchdog: a running job whose current point exceeds this is
     * marked stuck and its admission slot freed; 0 = no watchdog. */
    int pointTimeoutMs = 0;
    /** Concurrent connection cap; 0 = unlimited. */
    std::size_t maxConns = 64;
    /** Active (queued+running) jobs per client; 0 = unlimited. */
    std::size_t maxJobsPerClient = 0;
};

/** One point-in-time copy of the daemon's cumulative counters. */
struct ServeStats
{
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsServed = 0; //!< ran to completion
    std::uint64_t jobsRejected = 0;
    std::uint64_t jobsCancelled = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t jobsStuck = 0;     //!< retired by the watchdog
    std::uint64_t jobsRecovered = 0; //!< re-queued from the journal
    std::uint64_t jobsQueued = 0;  //!< current depth
    std::uint64_t jobsRunning = 0; //!< current depth
    std::uint64_t rowsStreamed = 0;
    std::uint64_t arenaFallbacks = 0;
    std::uint64_t shardsDispatched = 0; //!< worker chunks sent (front)
    std::uint64_t shardRetries = 0; //!< chunks re-dispatched after loss
    std::uint64_t pointsRedispatched = 0; //!< points inside those
    std::uint64_t workersRegistered = 0;  //!< current fleet size
    std::uint64_t workersAlive = 0;       //!< gauge
    std::uint64_t workersSuspect = 0;     //!< gauge
    std::uint64_t workersDead = 0;        //!< gauge
    std::uint64_t workersRecovering = 0;  //!< gauge
    std::uint64_t workerDeaths = 0; //!< transitions into dead, ever
    std::uint64_t probesSent = 0;
    std::uint64_t probeFailures = 0;
    std::uint64_t connsActive = 0;   //!< current depth
    std::uint64_t connsRejected = 0; //!< turned away "busy"
    std::uint64_t connTimeouts = 0;  //!< idle/write deadline hits
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;
    std::size_t residentArenaBytes = 0; //!< cache-held arena bytes
    std::size_t liveArenaBytes = 0;     //!< all live arenas anywhere
    std::size_t memBudgetBytes = 0;
    bool journalDegraded = false; //!< persistence lost mid-flight
};

class Server
{
  public:
    explicit Server(ServeConfig cfg);

    /** stop(drain=false) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket, replay the journal (re-queueing any jobs a
     * previous daemon left unfinished), and spawn the accept loop
     * and worker pool. Throws std::runtime_error when the socket or
     * the state dir cannot be set up. Returns with the daemon ready
     * to accept connections.
     */
    void start();

    /**
     * Shut down: stop admitting, then either finish every queued and
     * running job first (@p drain true — the SIGTERM path) or cancel
     * them (@p drain false), close all connections after their
     * streams flush, join every thread, and remove the socket file.
     * Idempotent.
     */
    void stop(bool drain);

    bool running() const { return running_; }

    /**
     * Ask the owner loop to shut down (the `shutdown` verb and the
     * signal thread both land here); waitShutdown() wakes.
     */
    void requestShutdown(bool drain);

    /** Block until requestShutdown(); returns its drain flag. */
    bool waitShutdown();

    const ServeConfig &config() const { return cfg_; }

    /**
     * The address the daemon actually listens on, in canonical
     * grammar form ("unix:PATH" / "tcp:HOST:PORT"). Differs from the
     * configured socketPath when that requested TCP port 0: the
     * kernel-assigned port is substituted. Valid after start().
     */
    const std::string &listenAddress() const { return boundAddress_; }

    ServeStats stats() const;

    /** The `stats` verb's reply (also dumped on SIGUSR1). */
    std::string statsJson() const;

    /** The worker fleet (membership + health). Valid after start();
     * empty on a plain worker daemon. */
    FleetManager &fleet() { return *fleet_; }
    const FleetManager &fleet() const { return *fleet_; }

  private:
    enum class JobState
    {
        Queued,
        Running,
        Done,
        Cancelled,
        Failed,
        Stuck
    };

    struct Job;

    void acceptLoop();
    void workerLoop();
    void watchdogLoop();
    void serveConnection(const std::shared_ptr<LineChannel> &ch);
    /** Join connection threads whose serveConnection has returned. */
    void reapConnThreads();

    /** Dispatch one request line; submit streams before returning. */
    void handleRequest(const std::string &line, LineChannel &ch);
    void handleSubmit(const JsonValue &req, const std::string &line,
                      LineChannel &ch);
    std::string handleStatus(const JsonValue &req);
    std::string handleCancel(const JsonValue &req);
    /** `register` / `deregister`: mutate the fleet (journalled). */
    std::string handleWorkerMembership(const JsonValue &req,
                                       bool add);
    /** `workers`: the fleet snapshot as a JSON reply. */
    std::string handleWorkers() const;

    /** Parse a submit request into an un-admitted Job; throws on any
     * spec problem (shared by live submits and journal recovery). */
    std::shared_ptr<Job> makeJob(const JsonValue &req);
    /** Replay the journal into the queue; returns re-queued count. */
    std::size_t recoverJobs();
    /** Drain @p job's out deque to @p ch until closed; false when
     * the consumer vanished or timed out mid-stream. */
    bool streamJob(const std::shared_ptr<Job> &job, LineChannel &ch);

    void runJob(const std::shared_ptr<Job> &job);
    /** Multi-node front: fan the job's points out across the fleet
     * via a work-stealing chunk queue, merging the row streams in
     * global point order; a lost chunk's undelivered points re-queue
     * immediately. */
    void runJobSharded(const std::shared_ptr<Job> &job);
    /** Governor: evict/reserve/fallback; true = replay from arenas. */
    bool decideArena(const std::shared_ptr<Job> &job);
    /** Return a decideArena() reservation to the budget pool. */
    void releaseReservation(const std::shared_ptr<Job> &job);
    void pushLine(const std::shared_ptr<Job> &job, std::string line);
    /** Finalize once (first caller wins — worker vs watchdog): set
     * the terminal state, counters, journal record, summary line. */
    void finishJob(const std::shared_ptr<Job> &job, JobState state,
                   const std::string &error, double wall_seconds,
                   bool used_arena);

    std::shared_ptr<Job> findJob(std::uint64_t id) const;
    void log(const std::string &msg) const;

    ServeConfig cfg_;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};

    int listenFd_ = -1;
    std::string boundAddress_; //!< canonical, set by start()
    std::thread acceptThread_;
    std::thread watchdogThread_;
    std::vector<std::thread> workers_;

    std::unique_ptr<JobJournal> journal_;
    std::unique_ptr<FleetManager> fleet_; //!< created by start()
    std::int64_t startMs_ = 0; //!< start() time, for uptime_seconds

    mutable std::mutex mu_; //!< jobs_, queue_, tokens_, nextJobId_
    std::condition_variable queueCv_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    std::map<std::string, std::uint64_t> tokens_; //!< token -> job id
    std::uint64_t nextJobId_ = 1;

    mutable std::mutex connMu_; //!< conns_, connThreads_, done ids
    std::condition_variable connCv_; //!< a connection retired
    std::map<std::uint64_t, std::shared_ptr<LineChannel>> conns_;
    std::map<std::uint64_t, std::thread> connThreads_;
    std::vector<std::uint64_t> doneConnIds_;
    std::uint64_t nextConnId_ = 1;

    std::mutex govMu_; //!< reservedArenaBytes_
    std::condition_variable govCv_; //!< reservation released
    std::size_t reservedArenaBytes_ = 0;

    std::mutex shutdownMu_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
    bool shutdownDrain_ = true;

    std::mutex watchdogMu_;
    std::condition_variable watchdogCv_;

    // Cumulative counters (ServeStats).
    std::atomic<std::uint64_t> jobsSubmitted_{0};
    std::atomic<std::uint64_t> jobsServed_{0};
    std::atomic<std::uint64_t> jobsRejected_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsStuck_{0};
    std::atomic<std::uint64_t> jobsRecovered_{0};
    std::atomic<std::uint64_t> rowsStreamed_{0};
    std::atomic<std::uint64_t> arenaFallbacks_{0};
    std::atomic<std::uint64_t> shardsDispatched_{0};
    std::atomic<std::uint64_t> shardRetries_{0};
    std::atomic<std::uint64_t> pointsRedispatched_{0};
    std::atomic<std::uint64_t> connsRejected_{0};
    std::atomic<std::uint64_t> connTimeouts_{0};
};

} // namespace sfetch

#endif // SFETCH_SERVE_SERVER_HH
