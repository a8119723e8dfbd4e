#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "serve/jsonio.hh"
#include "sim/workload_cache.hh"
#include "trace.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace sfetch;

Size
sizeByName(const std::string &name)
{
    if (name == "full")
        return {300'000, 60'000, 100, 4, 96};
    if (name == "tiny")
        return {4'000, 1'000, 2, 2, 4};
    throw std::invalid_argument("unknown size '" + name +
                                "' (want full|tiny)");
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::logic_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
}

void
Report::fail(const std::string &what)
{
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(what);
}

void
Report::check(bool ok, const std::string &what)
{
    attempt();
    if (!ok)
        fail(what);
}

void
Report::print() const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    for (const std::string &f : failures_)
        std::printf("FAILED: %s\n", f.c_str());
    for (const Metric &m : metrics_)
        std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double rate =
        attempted_ ? double(failed_) / double(attempted_) : 1.0;
    std::printf("error_rate %.6g (%llu failed of %llu attempted "
                "operations and checked rows)\n",
                rate, static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    std::string metrics = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        JsonObjectWriter w;
        w.field("value", metrics_[i].value).field("unit", metrics_[i].unit);
        metrics += (i ? ", " : "") + jsonQuote(metrics_[i].name) + ": " +
                   w.str();
    }
    metrics += "}";
    JsonObjectWriter out;
    out.field("correct", failed_ == 0 && attempted_ > 0)
        .field("attempted", attempted_)
        .field("failed", failed_)
        .raw("metrics", metrics);
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
}

std::string
rowIdentityError(const ResultRow &row)
{
    const SimStats &st = row.stats;
    const SimConfig &c = row.cfg;
    std::ostringstream err;
    if (st.committedInsts < c.insts ||
        st.committedInsts > c.insts + c.width - 1)
        err << "committed " << st.committedInsts << " outside ["
            << c.insts << ", " << c.insts + c.width - 1 << "]; ";
    if (st.cycles == 0)
        err << "zero cycles; ";
    // Counting starts after warmup, so instructions already in flight
    // then commit inside the window without having been fetched in
    // it; the fetch-ahead margin bounds how many there can be.
    const InstCount in_flight = c.warmupInsts ? kFetchAheadMargin : 0;
    if (st.fetchedCorrect + in_flight < st.committedInsts)
        err << "fetched_correct " << st.fetchedCorrect << " + "
            << in_flight << " < committed " << st.committedInsts << "; ";
    const std::string e = err.str();
    return e.empty() ? e : pointKey(row.bench, c) + ": " + e;
}

std::string
simPart(const std::string &row_json)
{
    static const std::string kWall = ", \"wall_seconds\": ";
    const std::size_t at = row_json.rfind(kWall);
    return at == std::string::npos ? row_json : row_json.substr(0, at);
}

std::string
pointKey(const std::string &bench, const SimConfig &cfg)
{
    std::ostringstream os;
    os << bench << '|' << cfg.specText() << "|w" << cfg.width << '|'
       << (cfg.optimizedLayout ? "opt" : "base") << '|' << cfg.insts
       << '+' << cfg.warmupInsts;
    return os.str();
}

bool
SimDigest::add(const ResultRow &row, const std::string &sim_text)
{
    auto [it, fresh] =
        rows_.emplace(pointKey(row.bench, row.cfg), Entry{sim_text, row.stats});
    return fresh || it->second.text == sim_text;
}

std::string
SimDigest::hex() const
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= 0xff;
        h *= 1099511628211ULL;
    };
    for (const auto &[key, e] : rows_) {
        mix(key);
        mix(e.text);
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
SimDigest::reportCounts(Report &report) const
{
    double cycles = 0, committed = 0, mispredicts = 0;
    std::vector<double> ipc, fetch_ipc, l1i, l1d;
    for (const auto &[key, e] : rows_) {
        cycles += double(e.stats.cycles);
        committed += double(e.stats.committedInsts);
        mispredicts += double(e.stats.mispredicts);
        ipc.push_back(e.stats.ipc());
        fetch_ipc.push_back(e.stats.fetchIpc());
        l1i.push_back(e.stats.l1iMissRate);
        l1d.push_back(e.stats.l1dMissRate);
    }
    report.metric("pipeline.sim_cycles", cycles, "count");
    report.metric("pipeline.ipc_hmean", harmonicMean(ipc),
                  "inst/cycle");
    report.metric("fetch.fetch_ipc_mean",
                  arithmeticMean(fetch_ipc), "inst/cycle");
    report.metric("bpred.mispredicts_per_kinst",
                  committed ? 1000.0 * mispredicts / committed : 0.0,
                  "1/kinst");
    report.metric("cache.l1i_miss_rate", arithmeticMean(l1i),
                  "ratio");
    report.metric("cache.l1d_miss_rate", arithmeticMean(l1d),
                  "ratio");
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb(int pid)
{
    std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
engineProbes(const std::vector<std::string> &benches, InstCount insts,
             Tracer &tracer, Report &report)
{
    // Token -> the module that holds the engine, as the metric name.
    static const std::pair<const char *, const char *> kEngines[] = {
        {"ev8", "fetch.ev8"},     {"ftb", "fetch.ftb"},
        {"seq", "fetch.seq"},     {"stream", "core.stream"},
        {"trace", "tcache.trace"},
    };
    constexpr int kReps = 3;
    Tracer::Scope root(tracer, "bench.engine_probes");
    double all_ns = 0, all_cycles = 0;
    for (const auto &[token, metric] : kEngines) {
        double ns = 0, committed = 0;
        for (const std::string &bench : benches) {
            const PlacedWorkload &work = WorkloadCache::instance().get(bench);
            SimConfig cfg(token);
            cfg.width = 4;
            cfg.optimizedLayout = true;
            cfg.insts = insts;
            cfg.warmupInsts = 0;
            std::shared_ptr<const OracleArena> arena;
            {
                Tracer::Scope span(tracer, "layout.arena_probe");
                arena = work.arena(true, insts + kFetchAheadMargin);
            }
            std::vector<double> reps;
            SimStats st;
            for (int r = 0; r < kReps; ++r) {
                Tracer::Scope span(tracer, std::string(metric) + ".run_on");
                const auto t0 = Clock::now();
                st = runOn(work, cfg, nullptr, arena.get());
                reps.push_back(secondsSince(t0));
            }
            ResultRow row{bench, cfg, st, 0.0};
            const std::string err = rowIdentityError(row);
            report.check(err.empty(), err);
            ns += median(reps) * 1e9;
            committed += double(st.committedInsts);
            all_cycles += double(st.cycles);
        }
        all_ns += ns;
        report.metric(std::string(metric) + ".ns_per_inst", ns / committed,
                      "ns/inst");
    }
    report.metric("pipeline.ns_per_cycle", all_ns / all_cycles, "ns/cycle");
}

void
oracleSampleCheck(const std::vector<ResultRow> &reference,
                  unsigned samples, std::uint64_t seed, bool timed,
                  bool corrupt, Tracer &tracer, Report &report)
{
    Pcg32 rng(seed, 0x5a3b1e);
    double live_s = 0, arena_s = 0, insts = 0;
    Tracer::Scope root(tracer, "bench.oracle_sample");
    for (unsigned i = 0; i < samples && !reference.empty(); ++i) {
        ResultRow ref = reference[rng.nextBounded(
            static_cast<std::uint32_t>(reference.size()))];
        if (corrupt)
            ref.stats.cycles += 1;
        const PlacedWorkload &work = WorkloadCache::instance().get(ref.bench);
        std::shared_ptr<const OracleArena> arena;
        {
            Tracer::Scope span(tracer, "layout.arena_sample");
            arena = work.arena(ref.cfg.optimizedLayout,
                               ref.cfg.insts + ref.cfg.warmupInsts +
                                   kFetchAheadMargin);
        }
        SimStats live, replay;
        {
            Tracer::Scope span(tracer, "layout.oracle_live");
            const auto t0 = Clock::now();
            live = runOn(work, ref.cfg);
            live_s += secondsSince(t0);
        }
        {
            Tracer::Scope span(tracer, "layout.oracle_arena");
            const auto t0 = Clock::now();
            replay = runOn(work, ref.cfg, nullptr, arena.get());
            arena_s += secondsSince(t0);
        }
        insts += simInsts(ref);
        const std::string key = pointKey(ref.bench, ref.cfg);
        report.check(live == replay,
                     key + ": arena replay differs from live generation");
        report.check(live == ref.stats,
                     key + ": rerun differs from the timed-phase row");
        work.dropArenas();
    }
    if (timed)
        report.metric("layout.oracle_live_ns_per_inst",
                      insts ? (live_s - arena_s) * 1e9 / insts : 0.0,
                      "ns/inst");
}

void
reportSetup(const std::vector<double> &reps, Report &report)
{
    std::ostringstream os;
    os << "setup: " << reps.size()
       << " cold set-ups (half before, half after the timed phase), median "
       << median(reps) << " s (min "
       << *std::min_element(reps.begin(), reps.end()) << ", max "
       << *std::max_element(reps.begin(), reps.end()) << ")";
    report.note(os.str());
    report.metric("setup_s", median(reps), "s");
}

void
reportServeNotApplicable(Report &report)
{
    report.metric("socket_io.bytes_per_row", 0.0, "B");
    report.metric("serve.ack_p50_s", 0.0, "s");
    report.metric("serve.first_row_after_ack_p50_s", 0.0, "s");
    report.metric("serve.shards_per_submit", 0.0, "count");
    report.metric("serve.points_per_shard", 0.0, "count");
    report.metric("fleet.workers_used_per_submit", 0.0, "count");
    report.metric("fleet.worker_rows_share_max", 0.0, "ratio");
    for (const char *name :
         {"serve.arena_fallbacks", "serve.worker_cache_evictions",
          "serve.shard_retries", "serve.points_redispatched"})
        report.metric(name, 0.0, "count");
}

void
reportThroughput(const std::vector<double> &start,
                 const std::vector<double> &end,
                 const std::vector<double> &insts, std::size_t window,
                 Report &report)
{
    std::vector<double> rates;
    for (std::size_t w = 0; w + window <= insts.size(); w += window) {
        double sum = 0;
        for (std::size_t j = w; j < w + window; ++j)
            sum += insts[j];
        rates.push_back(sum / (end[w + window - 1] - start[w]) / 1e6);
    }
    if (rates.empty() && !insts.empty())
        rates.push_back(std::accumulate(insts.begin(), insts.end(), 0.0) /
                        (end.back() - start.front()) / 1e6);
    if (rates.empty()) {
        report.metric("sim_minsts_per_s", 0.0, "Minst/s");
        return;
    }
    std::ostringstream os;
    os << "throughput: median of " << rates.size() << " windows of "
       << window << " requests (min " << *std::min_element(rates.begin(), rates.end())
       << ", max " << *std::max_element(rates.begin(), rates.end())
       << " Minst/s)";
    report.note(os.str());
    report.metric("sim_minsts_per_s", median(rates), "Minst/s");
}

void
reportLatency(const std::vector<double> &latency,
              const std::vector<double> &ttfr, Report &report)
{
    std::ostringstream os;
    os << "latency: " << latency.size()
       << " requests; p90 rests on "
       << latency.size() - static_cast<std::size_t>(0.9 * double(latency.size()))
       << " samples above it";
    if (latency.size() < 100)
        os << " (fewer than 10: p90 is a rough tail estimate)";
    report.note(os.str());
    report.metric("latency_p50_s", quantile(latency, 0.5), "s");
    report.metric("latency_p90_s", quantile(latency, 0.9), "s");
    report.metric("ttfr_p50_s", quantile(ttfr, 0.5), "s");
    report.metric("ttfr_p90_s", quantile(ttfr, 0.9), "s");
}

} // namespace perfbench
