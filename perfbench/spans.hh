/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark opens a span around every call it makes into a layer's
 * public entry point. A span holds a name ("<layer>.<what>"), a start
 * and an end on the host's steady clock, its parent, and an id shared by
 * every span of one grid cell ("kernel/config/seed"). Spans stay in
 * memory until the run ends; then they are written once, as Chrome
 * trace-event JSON that Perfetto and chrome://tracing open.
 *
 * Spans nest strictly (the traced run is single-threaded), so a span's
 * self time is its duration minus the durations of its direct children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench {

struct Span
{
    std::string name;
    std::string id;   ///< cell id, empty outside a cell
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    double start = 0; ///< seconds since the recorder was created
    double end = 0;

    double seconds() const { return end - start; }
};

class SpanRecorder
{
  public:
    SpanRecorder() : epoch(std::chrono::steady_clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name, const std::string &id = "");

    /** Close the innermost open span, which must be `index`. */
    void close(int index);

    /** Closes the span it opened when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const std::string &name,
              const std::string &id = "")
            : r(rec), index(rec.open(name, id))
        {
        }
        ~Scope() { r.close(index); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &r;
        int index;
    };

    const std::vector<Span> &spans() const { return all; }

    /** Summed duration of every span with this name. */
    double total(const std::string &name) const;

    /**
     * Self time (duration minus direct children) summed per layer, the
     * span-name prefix before the first '.'.
     */
    std::map<std::string, double> layerSelfTimes() const;

    /** The spans as a Chrome trace-event document. */
    dlp::json::Value chromeTrace() const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point epoch;
    std::vector<Span> all;
    std::vector<int> openStack;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
