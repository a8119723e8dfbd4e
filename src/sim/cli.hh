/**
 * @file
 * Shared command-line parsing for the bench and example binaries,
 * replacing the argv loops that used to be copy-pasted into each
 * main(). Binaries declare which of the standard sweep options they
 * take (--insts, --widths, --bench, --jobs, --format, --warmup) and
 * may register binary-specific options and positional arguments on
 * top; --help and error reporting come for free.
 */

#ifndef SFETCH_SIM_CLI_HH
#define SFETCH_SIM_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/results.hh"

namespace sfetch
{

/** Values of the standard sweep options after parsing. */
struct CliOptions
{
    InstCount insts = 1'000'000;
    /** Meaningful only when warmupSet; benches default to insts/5. */
    InstCount warmupInsts = 0;
    bool warmupSet = false;
    std::vector<unsigned> widths;       //!< from --widths
    std::vector<std::string> benches;   //!< default: whole suite
    /** Engine specs from --arch; empty = binary default. */
    std::vector<SimConfig> archs;
    unsigned jobs = 0;                  //!< 0 = hardware_concurrency
    OutputFormat format = OutputFormat::Table;

    /** Warmup to use for a measured run of @p n instructions. */
    InstCount
    warmupFor(InstCount n) const
    {
        return warmupSet ? warmupInsts : n / 5;
    }

    /** The --arch selection, or the paper's four-engine set. */
    std::vector<SimConfig> archsOrPaperSet() const;

    /**
     * Stamp the engine-agnostic sweep knobs (insts, warmup, layout,
     * and width when nonzero) onto a copy of @p base.
     */
    SimConfig
    stamped(const SimConfig &base, unsigned width = 0,
            bool optimized_layout = true) const
    {
        SimConfig cfg = base;
        if (width)
            cfg.width = width;
        cfg.optimizedLayout = optimized_layout;
        cfg.insts = insts;
        cfg.warmupInsts = warmupFor(insts);
        return cfg;
    }
};

class CliParser
{
  public:
    /** Bitmask naming the standard options a binary accepts. */
    enum : unsigned
    {
        kInsts = 1u << 0,
        kWidths = 1u << 1,
        kBench = 1u << 2,
        kJobs = 1u << 3,
        kFormat = 1u << 4,
        kWarmup = 1u << 5,
        /** --arch engine-spec list + --list-archs. */
        kArch = 1u << 6,
        /** The usual sweep-binary set. */
        kSweep = kInsts | kBench | kJobs | kFormat | kArch,
    };

    CliParser(std::string prog, std::string summary);

    /** Register the standard options in @p mask, writing into @p opts. */
    void addStandard(CliOptions *opts, unsigned mask);

    /** Register a binary-specific value option (--name METAVAR). */
    void addOption(const std::string &name, const std::string &metavar,
                   const std::string &help,
                   std::function<void(const std::string &)> parse);

    /** Register a binary-specific boolean flag (--name). */
    void addFlag(const std::string &name, const std::string &help,
                 std::function<void()> set);

    /**
     * Accept bare (non --option) arguments; @p parse is called once
     * per positional in order. Without this, positionals are errors.
     */
    void onPositional(const std::string &metavar,
                      const std::string &help,
                      std::function<void(const std::string &)> parse);

    /**
     * Parse the command line. Prints usage and exits 0 on --help;
     * prints the error and usage to stderr and exits 2 on bad input.
     */
    void parseOrExit(int argc, char **argv);

    std::string usage() const;

    // Shared token parsers (also used by binaries directly).
    /**
     * Strict decimal parse: the whole of @p text must be digits and
     * fit in 64 bits. Throws std::invalid_argument on empty text,
     * signs, trailing garbage ("5x"), or overflow — never silently
     * truncates the way a bare strtoull(.., nullptr, ..) call does.
     */
    static std::uint64_t parseU64(const std::string &text);
    static std::vector<unsigned>
    parseUnsignedList(const std::string &text);
    /**
     * A --widths list: parseUnsignedList() with every width checked
     * against checkPipeWidth() (1..FetchBundle::kCapacity).
     */
    static std::vector<unsigned>
    parseWidthList(const std::string &text);
    static std::vector<std::string>
    parseNameList(const std::string &text);

  private:
    struct Option
    {
        std::string name;    //!< including the leading "--"
        std::string metavar; //!< empty for flags
        std::string help;
        std::function<void(const std::string &)> parse;
    };

    const Option *findOption(const std::string &name) const;

    std::string prog_;
    std::string summary_;
    std::vector<Option> options_;
    std::string positionalMeta_;
    std::string positionalHelp_;
    std::function<void(const std::string &)> positional_;
};

/** Resolve --bench values: "all" (or empty) expands to the suite. */
std::vector<std::string>
resolveBenches(const std::vector<std::string> &requested);

/**
 * For binaries that study exactly one benchmark: return the single
 * requested name, or exit 2 with an error when --bench named several
 * (or "all").
 */
std::string
requireSingleBench(const CliOptions &opts, const char *prog);

} // namespace sfetch

#endif // SFETCH_SIM_CLI_HH
