/**
 * @file
 * End-to-end and protocol tests for the sfetchd serve subsystem: an
 * in-process Server on a temp socket, real ServeClient connections,
 * concurrent streaming submits checked bit-identical against the
 * offline SweepDriver, and the protocol's structured error paths.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/server.hh"
#include "serve/socket_io.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "util/fault_inject.hh"

using namespace sfetch;

namespace
{

/** A fresh socket path per test (sun_path is short; keep it so). */
std::string
testSocket(const char *tag)
{
    return "/tmp/sfetch-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

ServeConfig
testConfig(const char *tag)
{
    ServeConfig cfg;
    cfg.socketPath = testSocket(tag);
    cfg.workers = 2;
    cfg.memBudgetBytes = std::size_t(64) << 20;
    cfg.quiet = true;
    return cfg;
}

/** The canonical 6-point submit the e2e tests sweep. */
constexpr const char *kSubmit6 =
    "{\"verb\": \"submit\", \"bench\": \"gzip\", "
    "\"arch\": \"stream,ev8,ftb\", \"widths\": [4, 8], "
    "\"insts\": 20000, \"warmup\": 4000}";

/** The offline grid matching kSubmit6 (same expansion order: width
 * outer, arch inner — mirroring the server's submit handler). */
std::vector<SweepPoint>
grid6()
{
    std::vector<SimConfig> cfgs;
    for (unsigned width : {4u, 8u})
        for (const char *arch : {"stream", "ev8", "ftb"}) {
            SimConfig cfg(arch);
            cfg.width = width;
            cfg.optimizedLayout = true;
            cfg.insts = 20'000;
            cfg.warmupInsts = 4'000;
            cfgs.push_back(cfg);
        }
    return SweepDriver::grid({"gzip"}, cfgs);
}

struct Stream
{
    JsonValue ack;
    std::vector<JsonValue> frames; //!< row frames, arrival order
    JsonValue summary;
    bool done = false;
};

/** Submit @p submit_json and collect the whole stream. */
Stream
collect(const std::string &socket, const std::string &submit_json)
{
    Stream s;
    ServeClient client(socket);
    s.done = client.submitStream(
        submit_json,
        [&](const JsonValue &parsed, const std::string &) {
            if (s.ack.kind == JsonValue::Kind::Null) {
                s.ack = parsed;
            } else if (const JsonValue *d = parsed.find("done");
                       d && d->kind == JsonValue::Kind::Bool &&
                       d->boolean) {
                s.summary = parsed;
            } else {
                s.frames.push_back(parsed);
            }
            return true;
        });
    return s;
}

/** The `"row": {...}` payload of a frame line, as raw JSON text. */
std::string
rowPayload(const std::string &frame_line)
{
    const std::string key = "\"row\": ";
    std::size_t at = frame_line.find(key);
    EXPECT_NE(at, std::string::npos) << frame_line;
    // The row object is the frame's final member.
    return frame_line.substr(at + key.size(),
                             frame_line.size() - at - key.size() - 1);
}

/** A state dir with no journal left over from earlier runs. */
std::string
freshStateDir(const char *tag)
{
    const std::string dir = "/tmp/sfetch-test-" +
                            std::to_string(::getpid()) + "-" + tag;
    ::mkdir(dir.c_str(), 0755);
    ::unlink((dir + "/jobs.ndjson").c_str());
    ::unlink((dir + "/jobs.ndjson.tmp").c_str());
    return dir;
}

/** A cheap single-point submit (one gzip/stream run). */
constexpr const char *kSubmit1 =
    "{\"verb\": \"submit\", \"bench\": \"gzip\", "
    "\"arch\": \"stream\", \"widths\": [8], "
    "\"insts\": 2000, \"warmup\": 400}";

} // namespace

/**
 * Transport-parameterized suite: the core protocol guarantees hold
 * identically over a Unix socket and loopback TCP. Servers listen on
 * an ephemeral port under "tcp" (port 0); clients connect to the
 * resolved server.listenAddress().
 */
class ServeTransport : public ::testing::TestWithParam<const char *>
{
  protected:
    ServeConfig config(const char *tag) const
    {
        ServeConfig cfg = testConfig(tag);
        if (std::string(GetParam()) == "tcp")
            cfg.socketPath = "tcp:127.0.0.1:0";
        return cfg;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Transports, ServeTransport, ::testing::Values("unix", "tcp"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST_P(ServeTransport, ConcurrentSubmitsStreamBitIdenticalToOffline)
{
    // Offline reference, same grid, single-threaded.
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    ASSERT_EQ(expect.size(), 6u);

    Server server(config("e2e"));
    server.start();

    // Two clients submit the same 6-point sweep concurrently; the
    // daemon runs them on two workers.
    std::vector<std::string> raw_lines[2];
    Stream streams[2];
    std::thread t0([&] {
        ServeClient client(server.listenAddress());
        client.submitStream(
            kSubmit6,
            [&](const JsonValue &parsed, const std::string &raw) {
                raw_lines[0].push_back(raw);
                if (parsed.find("point"))
                    streams[0].frames.push_back(parsed);
                return true;
            });
    });
    std::thread t1([&] {
        ServeClient client(server.listenAddress());
        client.submitStream(
            kSubmit6,
            [&](const JsonValue &parsed, const std::string &raw) {
                raw_lines[1].push_back(raw);
                if (parsed.find("point"))
                    streams[1].frames.push_back(parsed);
                return true;
            });
    });
    t0.join();
    t1.join();

    for (int c = 0; c < 2; ++c) {
        // ack + 6 frames + summary
        ASSERT_EQ(raw_lines[c].size(), 8u) << "client " << c;
        ASSERT_EQ(streams[c].frames.size(), 6u) << "client " << c;

        // Row-complete and point-ordered (the daemon's default sweep
        // is single-threaded, so completion order == point order).
        std::string rows_doc = "{\"wall_seconds\": 0, \"rows\": [";
        for (std::size_t i = 0; i < streams[c].frames.size(); ++i) {
            const JsonValue &f = streams[c].frames[i];
            EXPECT_EQ(f.at("point").asU64(), i) << "client " << c;
            EXPECT_EQ(f.at("of").asU64(), 6u);
            EXPECT_TRUE(f.at("arena").asBool())
                << "6-point group fits a 64 MiB budget";
            rows_doc += (i ? "," : "") +
                        rowPayload(raw_lines[c][1 + i]);
        }
        rows_doc += "]}";

        // Every streamed row is bit-identical to the offline sweep.
        ResultSet streamed = ResultSet::fromJson(rows_doc);
        ASSERT_EQ(streamed.size(), expect.size()) << "client " << c;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(streamed.at(i).bench, expect.at(i).bench);
            EXPECT_EQ(streamed.at(i).cfg, expect.at(i).cfg)
                << "client " << c << " row " << i;
            EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
                << "client " << c << " row " << i
                << " diverged from the offline driver";
        }

        // The summary closes the stream in the done state.
        const JsonValue last =
            JsonReader(raw_lines[c].back()).parse();
        EXPECT_TRUE(last.at("done").asBool());
        EXPECT_EQ(last.at("state").asString(), "done");
        EXPECT_EQ(last.at("points_done").asU64(), 6u);
    }

    // The governor held the line: resident arena bytes never exceed
    // the budget (checked via the same stats the verb reports).
    ServeStats st = server.stats();
    EXPECT_EQ(st.jobsSubmitted, 2u);
    EXPECT_EQ(st.jobsServed, 2u);
    EXPECT_EQ(st.rowsStreamed, 12u);
    EXPECT_EQ(st.arenaFallbacks, 0u);
    EXPECT_LE(st.residentArenaBytes, st.memBudgetBytes);

    server.stop(true);
}

TEST_P(ServeTransport, ProtocolErrorsAreStructuredAndNonFatal)
{
    Server server(config("proto"));
    server.start();
    ServeClient client(server.listenAddress());

    // Malformed JSON.
    JsonValue r = client.request("this is not json {");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_json");

    // Unknown verb — the connection survived the bad line.
    r = client.request("{\"verb\": \"frobnicate\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_verb");

    // Missing verb.
    r = client.request("{\"job\": 1}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_verb");

    // Bad engine spec on submit.
    r = client.request("{\"verb\": \"submit\", "
                       "\"arch\": \"not-an-engine\", "
                       "\"bench\": \"gzip\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_spec");

    // Bad bench spec.
    r = client.request("{\"verb\": \"submit\", "
                       "\"bench\": \"not-a-bench\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_spec");

    // Pipe widths outside 1..16, in the grid and explicit forms.
    for (const char *bad :
         {"{\"verb\": \"submit\", \"widths\": [8, 17]}",
          "{\"verb\": \"submit\", \"widths\": 0}",
          "{\"verb\": \"submit\", \"points\": [{\"bench\": "
          "\"gzip\", \"spec\": \"stream\", \"layout\": \"opt\", "
          "\"width\": 17, \"insts\": 1000, \"warmup\": 0}]}"}) {
        r = client.request(bad);
        EXPECT_FALSE(r.at("ok").asBool()) << bad;
        EXPECT_EQ(r.at("reason").asString(), "bad_spec") << bad;
        EXPECT_NE(r.at("error").asString().find("range 1..16"),
                  std::string::npos)
            << bad;
    }

    // Unknown job id.
    r = client.request("{\"verb\": \"status\", \"job\": 999}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_job");

    // After all that abuse, the connection still serves real work.
    r = client.request("{\"verb\": \"health\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("health").asString(), "ok");

    ServeStats st = server.stats();
    EXPECT_EQ(st.jobsRejected, 5u); // the five bad submits
    server.stop(true);
}

TEST(Serve, AdmissionControlRejectsWithReasons)
{
    // Points-per-job quota.
    {
        ServeConfig cfg = testConfig("admit1");
        cfg.maxPointsPerJob = 4;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(kSubmit6); // expands to 6 > 4
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "max_points_per_job");
        server.stop(true);
    }
    // Job-count quota.
    {
        ServeConfig cfg = testConfig("admit2");
        cfg.maxJobs = 0;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(kSubmit6);
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "queue_full");
        server.stop(true);
    }
    // Budget: a job that *requires* arenas it can never fit is
    // rejected at submit, before any simulation runs.
    {
        ServeConfig cfg = testConfig("admit3");
        cfg.memBudgetBytes = std::size_t(1) << 20;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(
            "{\"verb\": \"submit\", \"bench\": \"gzip\", "
            "\"arch\": \"stream,ev8\", \"insts\": 1000000, "
            "\"arena\": \"require\"}");
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "over_budget");
        EXPECT_EQ(server.stats().jobsRejected, 1u);
        server.stop(true);
    }
}

TEST(Serve, OverBudgetAutoJobFallsBackToPrivateWindows)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    // The offline reference decoded an arena into the shared cache;
    // drop it so the "budget 0 stays honest" assertion below sees
    // only what the daemon itself made resident.
    WorkloadCache::instance().clear();

    ServeConfig cfg = testConfig("fallback");
    cfg.memBudgetBytes = 0; // nothing fits: every arena plan fails
    Server server(cfg);
    server.start();

    std::vector<std::string> raw;
    std::vector<JsonValue> frames;
    {
        ServeClient client(cfg.socketPath);
        EXPECT_TRUE(client.submitStream(
            kSubmit6,
            [&](const JsonValue &parsed, const std::string &line) {
                raw.push_back(line);
                if (parsed.find("point"))
                    frames.push_back(parsed);
                return true;
            }));
    }
    ASSERT_EQ(frames.size(), 6u);
    std::string rows_doc = "{\"wall_seconds\": 0, \"rows\": [";
    for (std::size_t i = 0; i < frames.size(); ++i) {
        // The frames say so: these rows replayed private windows.
        EXPECT_FALSE(frames[i].at("arena").asBool());
        rows_doc += (i ? "," : "") + rowPayload(raw[1 + i]);
    }
    rows_doc += "]}";

    // Fallback is invisible in the numbers.
    ResultSet streamed = ResultSet::fromJson(rows_doc);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
            << "row " << i << " diverged under arena fallback";

    ServeStats st = server.stats();
    EXPECT_EQ(st.arenaFallbacks, 1u);
    EXPECT_EQ(st.residentArenaBytes, 0u); // budget 0 stayed honest
    server.stop(true);
}

TEST(Serve, StatusCancelStatsAndShutdownVerbs)
{
    Server server(testConfig("verbs"));
    server.start();
    const std::string &sock = server.config().socketPath;

    Stream s = collect(sock, kSubmit6);
    ASSERT_TRUE(s.done);
    const std::uint64_t job = s.ack.at("job").asU64();

    ServeClient client(sock);
    JsonValue r = client.request(
        "{\"verb\": \"status\", \"job\": " + std::to_string(job) +
        "}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("state").asString(), "done");
    EXPECT_EQ(r.at("points_done").asU64(), 6u);
    EXPECT_EQ(r.at("of").asU64(), 6u);

    // Cancelling a finished job is a polite no-op.
    r = client.request("{\"verb\": \"cancel\", \"job\": " +
                       std::to_string(job) + "}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("cancelled").asBool());

    r = client.request("{\"verb\": \"stats\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("jobs_served").asU64(), 1u);
    EXPECT_EQ(r.at("rows_streamed").asU64(), 6u);
    EXPECT_EQ(r.at("mem_budget_bytes").asU64(),
              server.config().memBudgetBytes);

    // The shutdown verb acks, then the daemon owner drains.
    r = client.request("{\"verb\": \"shutdown\", \"drain\": true}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_TRUE(server.waitShutdown());
    server.stop(true);

    // Fully stopped: the socket file is gone and connecting fails.
    EXPECT_THROW(ServeClient dead(sock), std::runtime_error);
}

TEST(Serve, DrainingServerRejectsNewSubmits)
{
    Server server(testConfig("drain"));
    server.start();
    ServeClient client(server.config().socketPath);
    // Run one job to completion, then stop(drain) — afterwards the
    // socket is closed, so "draining" rejection needs the window
    // *during* stop. Instead exercise the reason directly: flip the
    // drain flag via the shutdown verb's request path and submit
    // before the owner acts on it.
    JsonValue r =
        client.request("{\"verb\": \"shutdown\", \"drain\": true}");
    EXPECT_TRUE(r.at("ok").asBool());
    // The server only drains once stop() runs; simulate the race by
    // stopping on another thread while submits arrive. A submit can
    // land in three windows: before stop() flips the drain flag
    // (accepted, drains normally), during the drain (a structured
    // "draining" rejection), or after the socket closed (a connect
    // refusal). Keep submitting until a rejecting window is hit.
    std::thread stopper([&] { server.stop(true); });
    bool refused = false;
    for (int i = 0; i < 500 && !refused; ++i) {
        try {
            ServeClient late(server.config().socketPath);
            late.submitStream(
                kSubmit1,
                [&](const JsonValue &parsed, const std::string &) {
                    if (const JsonValue *ok = parsed.find("ok");
                        ok && ok->kind == JsonValue::Kind::Bool &&
                        !ok->boolean) {
                        EXPECT_EQ(parsed.at("reason").asString(),
                                  "draining");
                        refused = true;
                    }
                    return true;
                });
        } catch (const std::runtime_error &) {
            // Socket already gone: equally a refusal.
            refused = true;
        }
    }
    EXPECT_TRUE(refused);
    stopper.join();
}

TEST_P(ServeTransport, JournalCrashRecoveryIsBitIdenticalAfterTokenAttach)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    ASSERT_EQ(expect.size(), 6u);

    // A crashed daemon's journal, written by the journal itself: one
    // in-flight job with a client token (no terminal record), one
    // finished job, and the torn tail a kill -9 mid-append leaves.
    const std::string dir = freshStateDir("recov");
    const std::string spec6tok =
        std::string(kSubmit6).substr(0, std::string(kSubmit6).size() -
                                            1) +
        ", \"token\": \"t-rec\"}";
    {
        JobJournal j(dir);
        j.submitted(7, "t-rec", spec6tok);
        j.started(7);
        j.submitted(8, "", kSubmit1);
        j.finished(8, "done");
    }
    {
        std::ofstream torn(dir + "/jobs.ndjson", std::ios::app);
        torn << "{\"rec\": \"submitt";
    }

    ServeConfig cfg = config("recov");
    cfg.stateDir = dir;
    Server server(cfg);
    server.start();
    EXPECT_EQ(server.stats().jobsRecovered, 1u)
        << "the finished job and the torn line must not re-queue";

    // The original submitter resubmits its token: it attaches to the
    // recovered job and receives every row (buffered or live).
    std::vector<std::string> raw;
    std::vector<JsonValue> frames;
    JsonValue ack;
    {
        ServeClient client(server.listenAddress());
        ASSERT_TRUE(client.submitStream(
            spec6tok,
            [&](const JsonValue &parsed, const std::string &line) {
                raw.push_back(line);
                if (ack.kind == JsonValue::Kind::Null)
                    ack = parsed;
                else if (parsed.find("point"))
                    frames.push_back(parsed);
                return true;
            }));
    }
    EXPECT_TRUE(ack.at("attached").asBool());
    ASSERT_EQ(frames.size(), 6u);

    // The crash-recovery contract: the re-run rows are bit-identical
    // to an offline sweep of the same grid.
    std::string rows_doc = "{\"wall_seconds\": 0, \"rows\": [";
    for (std::size_t i = 0; i < frames.size(); ++i)
        rows_doc += (i ? "," : "") + rowPayload(raw[1 + i]);
    rows_doc += "]}";
    ResultSet streamed = ResultSet::fromJson(rows_doc);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(streamed.at(i).cfg, expect.at(i).cfg) << "row " << i;
        EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
            << "recovered row " << i << " diverged from offline";
    }

    // A second resubmit of the same token is deduplicated: one
    // summary line, no third run.
    {
        ServeClient client(server.listenAddress());
        std::vector<JsonValue> lines;
        ASSERT_TRUE(client.submitStream(
            spec6tok,
            [&](const JsonValue &parsed, const std::string &) {
                lines.push_back(parsed);
                return true;
            }));
        ASSERT_EQ(lines.size(), 1u);
        EXPECT_TRUE(lines[0].at("duplicate").asBool());
        EXPECT_EQ(lines[0].at("state").asString(), "done");
        EXPECT_EQ(lines[0].at("points_done").asU64(), 6u);
    }
    EXPECT_EQ(server.stats().jobsSubmitted, 0u)
        << "token resubmits never create a second job";
    server.stop(true);

    // The journal now carries the terminal record: a third daemon on
    // the same state dir has nothing to replay.
    ServeConfig cfg2 = config("recov2");
    cfg2.stateDir = dir;
    Server second(cfg2);
    second.start();
    EXPECT_EQ(second.stats().jobsRecovered, 0u);
    second.stop(true);
}

TEST(Serve, PerClientQuotaRejectsOverQuota)
{
    ServeConfig cfg = testConfig("quota");
    cfg.maxJobsPerClient = 1;
    Server server(cfg);
    server.start();

    // Occupy the quota with a long job on a raw channel (read only
    // the ack, leaving the job active).
    LineChannel slow(connectUnix(cfg.socketPath));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream\", \"widths\": [8], "
        "\"insts\": 500000, \"warmup\": 1000}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));
    ASSERT_TRUE(JsonReader(ack).parse().at("ok").asBool());

    // Every connection from this process shares one SO_PEERCRED
    // identity, so a second submit trips the per-client cap.
    ServeClient client(cfg.socketPath);
    JsonValue r = client.request(kSubmit1);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "over_quota");

    // Drain the first job; afterwards the quota is free again.
    std::string line;
    while (slow.readLine(line))
        if (line.find("\"done\": true") != std::string::npos)
            break;
    r = client.request(kSubmit1);
    EXPECT_TRUE(r.at("ok").asBool());
    // (request() reads one line — the ack; the stream that follows
    // dies with the client connection, which cancels cleanly.)
    server.stop(true);
}

TEST(Serve, TcpClientsGetIndependentPerClientQuotas)
{
    // Over TCP there is no SO_PEERCRED: peerId() falls back to the
    // peer's host:port, so each connection is its own quota bucket.
    // Before that fix every TCP client shared the daemon-uid bucket
    // and one busy client could starve all the others.
    ServeConfig cfg = testConfig("tcpquota");
    cfg.socketPath = "tcp:127.0.0.1:0";
    cfg.maxJobsPerClient = 1;
    Server server(cfg);
    server.start();
    const std::string addr = server.listenAddress();

    // Client A occupies its quota with a long job (read only the
    // ack, leaving the job active).
    LineChannel slow(connectSocket(parseSocketAddr(addr)));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream\", \"widths\": [8], "
        "\"insts\": 500000, \"warmup\": 1000}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));
    ASSERT_TRUE(JsonReader(ack).parse().at("ok").asBool());

    // Client B is a distinct TCP peer (fresh ephemeral port): its
    // budget is independent, so the submit is admitted — under the
    // old shared-bucket keying this was an over_quota rejection.
    ServeClient other(addr);
    JsonValue r = other.request(kSubmit1);
    EXPECT_TRUE(r.at("ok").asBool())
        << "second TCP client hit the first client's quota";

    // Drain client A's job so the server stops cleanly.
    std::string line;
    while (slow.readLine(line))
        if (line.find("\"done\": true") != std::string::npos)
            break;
    server.stop(true);
}

TEST(Serve, WatchdogRetiresStuckJobAndFreesItsSlot)
{
    ServeConfig cfg = testConfig("stuck");
    cfg.pointTimeoutMs = 1; // any real point exceeds this
    cfg.maxJobs = 1;
    Server server(cfg);
    server.start();

    Stream s = collect(cfg.socketPath,
                       "{\"verb\": \"submit\", \"bench\": \"gzip\", "
                       "\"arch\": \"stream\", \"widths\": [8], "
                       "\"insts\": 400000, \"warmup\": 1000}");
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "stuck");
    EXPECT_EQ(server.stats().jobsStuck, 1u);

    // The stuck job's admission slot is free even though its worker
    // is still grinding the captive point: with maxJobs = 1, a new
    // submit is admitted (no "queue_full") and reaches a terminal
    // summary. Under load the 1 ms watchdog can legitimately retire
    // this one too, so only admission and termination are asserted.
    Stream b = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(b.done);
    EXPECT_TRUE(b.ack.at("ok").asBool());
    const std::string b_state = b.summary.at("state").asString();
    EXPECT_TRUE(b_state == "done" || b_state == "stuck") << b_state;
    server.stop(true);
}

TEST(Serve, ConnectionCapRejectsBusyAndReapsOnDisconnect)
{
    ServeConfig cfg = testConfig("busy");
    cfg.maxConns = 1;
    Server server(cfg);
    server.start();

    auto first = std::make_unique<ServeClient>(cfg.socketPath);
    EXPECT_TRUE(
        first->request("{\"verb\": \"health\"}").at("ok").asBool());

    // The second connection is turned away with a structured error
    // before any request is read.
    {
        LineChannel turned(connectUnix(cfg.socketPath));
        std::string line;
        ASSERT_TRUE(turned.readLine(line));
        JsonValue r = JsonReader(line).parse();
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "busy");
    }
    ServeStats st = server.stats();
    EXPECT_EQ(st.connsRejected, 1u);
    EXPECT_EQ(st.connsActive, 1u);

    // Dropping the first connection frees its slot (the conn thread
    // retires itself; the accept loop reaps the handle).
    first.reset();
    bool readmitted = false;
    for (int i = 0; i < 200 && !readmitted; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        try {
            ServeClient again(cfg.socketPath);
            readmitted = again.request("{\"verb\": \"health\"}")
                             .at("ok")
                             .asBool();
        } catch (const std::exception &) {
        }
    }
    EXPECT_TRUE(readmitted);
    server.stop(true);
}

TEST(Serve, IdleConnectionsAreClosedWithATimeoutError)
{
    ServeConfig cfg = testConfig("idle");
    cfg.idleTimeoutMs = 50;
    Server server(cfg);
    server.start();

    LineChannel ch(connectUnix(cfg.socketPath));
    // Send nothing; the server's read deadline expires and it closes
    // the connection with a structured goodbye.
    std::string line;
    ASSERT_TRUE(ch.readLine(line));
    JsonValue r = JsonReader(line).parse();
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "timeout");
    EXPECT_FALSE(ch.readLine(line)); // then EOF
    EXPECT_EQ(server.stats().connTimeouts, 1u);
    server.stop(true);
}

TEST(Serve, JournalFailureDegradesPersistenceNotService)
{
    ServeConfig cfg = testConfig("degraded");
    cfg.stateDir = freshStateDir("degraded");
    Server server(cfg);
    server.start();
    EXPECT_FALSE(server.stats().journalDegraded);

    // The first journal append hits an injected fsync failure.
    fault::arm("journal.fsync", 0, 1);
    Stream s = collect(cfg.socketPath, kSubmit1);
    fault::disarmAll();
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    ASSERT_EQ(s.frames.size(), 1u);
    EXPECT_TRUE(server.stats().journalDegraded);

    // Serving continues unharmed after persistence is lost.
    Stream s2 = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(s2.done);
    EXPECT_EQ(s2.summary.at("state").asString(), "done");
    server.stop(true);
}

TEST(Serve, DeeplyNestedRequestIsBadJsonNotACrash)
{
    Server server(testConfig("deep"));
    server.start();
    ServeClient client(server.config().socketPath);

    std::string deep(100'000, '[');
    deep.append(100'000, ']');
    JsonValue r = client.request(deep);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_json");

    // The connection (and the daemon) shrug it off.
    r = client.request("{\"verb\": \"health\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    server.stop(true);
}
