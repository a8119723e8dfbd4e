#include "trace.hh"

#include <cstdio>
#include <sstream>

#include "serve/jsonio.hh"

namespace perfbench
{

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::size_t
Tracer::begin(const std::string &name, std::uint64_t req)
{
    if (!enabled_)
        return kNone;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNone : open_.back();
    s.req = req;
    spans_.push_back(std::move(s));
    childNs_.push_back(0);
    open_.push_back(spans_.size() - 1);
    // Stamp last so the bookkeeping above is outside the span.
    spans_.back().startNs = nowNs();
    return spans_.size() - 1;
}

void
Tracer::end(std::size_t id)
{
    if (id == kNone || spans_.at(id).endNs >= 0)
        return;
    const std::int64_t t = nowNs();
    // Closing a span closes any child an error path left open.
    while (!open_.empty()) {
        const std::size_t top = open_.back();
        open_.pop_back();
        Span &s = spans_[top];
        s.endNs = t;
        if (s.parent != kNone)
            childNs_[s.parent] += s.endNs - s.startNs;
        if (top == id)
            return;
    }
}

double
Tracer::selfSeconds(std::size_t i) const
{
    const Span &s = spans_[i];
    return double(s.endNs - s.startNs - childNs_[i]) * 1e-9;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.endNs >= 0 && s.name == name)
            out.push_back(double(s.endNs - s.startNs) * 1e-9);
    return out;
}

std::map<std::string, double>
Tracer::selfByLayer() const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].endNs >= 0)
            out[layerOf(spans_[i].name)] += selfSeconds(i);
    return out;
}

double
Tracer::tracedWall() const
{
    double wall = 0.0;
    for (const Span &s : spans_)
        if (s.parent == kNone && s.endNs >= 0)
            wall += double(s.endNs - s.startNs) * 1e-9;
    return wall;
}

double
Tracer::coverage() const
{
    const double wall = tracedWall();
    if (wall <= 0.0)
        return 0.0;
    double covered = 0.0;
    for (const auto &[layer, self] : selfByLayer())
        if (layer != "bench")
            covered += self;
    return covered / wall;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [", f);
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        sfetch::JsonObjectWriter args;
        args.field("req", s.req)
            .field("parent", s.parent == kNone
                                 ? std::string()
                                 : spans_[s.parent].name)
            .field("self_us", selfSeconds(i) * 1e6);
        sfetch::JsonObjectWriter ev;
        ev.field("name", s.name)
            .field("cat", layerOf(s.name))
            .field("ph", "X")
            .field("ts", double(s.startNs) * 1e-3)
            .field("dur", double(s.endNs - s.startNs) * 1e-3)
            .field("pid", std::uint64_t(1))
            .field("tid", std::uint64_t(1))
            .raw("args", args.str());
        std::fprintf(f, "%s\n  %s", first ? "" : ",", ev.str().c_str());
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

void
finishTrace(const Tracer &tracer, const Options &opt, Report &report)
{
    std::ostringstream os;
    os << "trace: " << tracer.size() << " spans over a traced wall of "
       << tracer.tracedWall() << " s; self time by layer:";
    for (const auto &[layer, self] : tracer.selfByLayer())
        os << ' ' << layer << '=' << self;
    report.note(os.str());

    const double cov = tracer.coverage();
    std::ostringstream cv;
    cv << "trace: layer self times cover " << cov
       << " of the traced wall (tolerance " << kCoverageTolerance
       << ": must lie in [" << 1 - kCoverageTolerance << ", 1])";
    report.note(cv.str());
    report.check(cov >= 1 - kCoverageTolerance && cov <= 1 + 1e-9,
                 "trace coverage out of tolerance");
    if (!opt.traceOut.empty()) {
        report.check(tracer.writeChrome(opt.traceOut),
                     "cannot write trace file " + opt.traceOut);
        report.note("trace: Chrome trace-event JSON in " + opt.traceOut);
    }
}

} // namespace perfbench
