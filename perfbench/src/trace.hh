/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its calls into sfetch,
 * never inside the program. A span's layer is its name up to the
 * first '.', e.g. `layout.arena` belongs to `layout`. Top-level
 * spans are `bench.*` spans: the benchmark's own loop around one
 * request. Their self time is the benchmark's glue, and the share of
 * their duration covered by layer spans is the trace's coverage.
 *
 * All spans are opened and closed on the thread that owns the
 * Tracer, so children nest strictly inside their parent and never
 * overlap each other: a span's self time is its duration minus the
 * sum of its children's.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class Tracer
{
  public:
    static constexpr std::size_t kNone = ~std::size_t(0);

    /** Spans recorded while enabled; toggled per request block. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one. kNone when off.
     * end() closes it, and any child still open. */
    std::size_t begin(const std::string &name, std::uint64_t req = 0);
    void end(std::size_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, std::uint64_t req = 0)
            : t_(t), id_(t.begin(name, req))
        {
        }
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::size_t id_;
    };

    /** Durations in seconds of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self seconds summed per layer. */
    std::map<std::string, double> selfByLayer() const;

    /** Summed duration of the top-level spans (the traced wall). */
    double tracedWall() const;

    /** Share of the traced wall covered by layer spans' self time. */
    double coverage() const;

    std::size_t size() const { return spans_.size(); }

    /** Write Chrome trace-event JSON; false on IO error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1; //!< -1 while open
        std::size_t parent = kNone;
        std::uint64_t req = 0;
    };

    std::int64_t nowNs() const;
    double selfSeconds(std::size_t i) const;

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::vector<std::int64_t> childNs_; //!< summed child ns per span
};

/** Layer of a span name: the text before the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Largest share of the traced wall that may fall outside layer spans
 * (the benchmark's own glue between calls).
 */
constexpr double kCoverageTolerance = 0.05;

/**
 * Print per-layer self time, check that the layer spans cover the
 * traced wall within kCoverageTolerance, and write the Chrome trace.
 */
void finishTrace(const Tracer &tracer, const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
