/**
 * @file
 * The benchmark's metric catalogue and result report.
 *
 * Every metric the benchmark can print is declared once in
 * `catalogue()` with its unit, clock and direction; BENCHMARK.json
 * lists the same names and units (test_perfbench.py checks that they
 * agree). Units of modeled metrics start with "model-" so the clock
 * travels with the number.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Clock
{
    Host,     ///< simulator CPU time on this machine
    Modeled,  ///< simulated appliance time (deterministic per seed)
};

enum class Kind
{
    EndToEnd,  ///< printed by untraced runs (--trace 0)
    Layer,     ///< printed by traced runs (--trace 1)
};

struct MetricDef
{
    const char *name;
    const char *unit;
    Clock clock;
    bool higherIsBetter;
    Kind kind;
};

/** Every metric, end-to-end first, in print order. */
const std::vector<MetricDef> &catalogue();

/**
 * Result of one run: metric values with the base each was computed
 * from, run facts (kernel, nproc, ...), and the correctness verdict.
 * A metric the workload does not measure is printed as "n/a" in the
 * table and as a neutral placeholder in the JSON line (1 for an
 * end-to-end metric, which must never read 0; 0 for a layer metric).
 */
class Report
{
  public:
    /** Records a measured metric; `name` must be in the catalogue. */
    void set(const std::string &name, double value,
             const std::string &base);

    /** Records a run fact printed above the metric table. */
    void fact(const std::string &key, const std::string &value);

    /** Counts one operation; a false `ok` also counts it failed. */
    void op(bool ok);

    /** Records a correctness check; a failing one fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return correct_; }
    uint64_t failed() const { return failed_; }

    /**
     * Prints the facts, the metric table of the run's kind (with
     * clock, direction and base) and, as the last line of stdout,
     * the JSON object {correct, attempted, failed, metrics}.
     */
    void print(Kind kind) const;

  private:
    struct Value
    {
        double value = 0;
        std::string base;
    };
    std::map<std::string, Value> values_;
    std::vector<std::pair<std::string, std::string>> facts_;
    bool correct_ = true;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Monotonic host time in seconds. */
double now();

/**
 * CPU seconds this process has run, summed over its threads. The
 * host rates and set-up times are measured on this clock: time the
 * process waits for a CPU (behind other load, or while the hypervisor
 * runs another guest) is not counted, while any work the program
 * does, in any thread, is.
 */
double cpuNow();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Sample median (0 for an empty sample). */
double median(std::vector<double> v);

/** "N samples, min..max" for a base string. */
std::string range(const std::vector<double> &v);

/**
 * The tail of a sample: the highest percentile that still has at
 * least 10 samples beyond it, i.e. the value with exactly 10 larger
 * ranks. `label` receives e.g. "p99 of 1000" (the percentile and the
 * sample count). Samples under 11 give the maximum.
 */
double tail(std::vector<double> v, std::string *label);

/** 64-bit FNV-1a over a token stream (the decode golden digest). */
uint64_t digest(const std::vector<int32_t> &tokens);

std::string fmt(const char *format, ...);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_HPP
