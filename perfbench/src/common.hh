/**
 * @file
 * Shared helpers of the perfbench probes: a monotonic clock, a seeded
 * generator, workload trace recording, resident-set readings, and the
 * in-memory span log the traced runs write out at exit.
 *
 * Everything here sits *outside* the program: spans are taken around
 * calls into the public functions of each layer, never inside them.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vm/machine.hh"
#include "vm/trace.hh"
#include "workloads/workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** CLOCK_MONOTONIC in ns: comparable across the probe processes and
 *  the orchestrator (Python's time.monotonic_ns reads the same clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
}

/** splitmix64 step: the generator every seeded choice draws from. */
inline uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A generator state derived from a seed and a tuple of indices. */
inline uint64_t
derive(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0)
{
    uint64_t state = seed;
    uint64_t out = splitmix(state) ^ a;
    state = out;
    out = splitmix(state) ^ b;
    state = out;
    out = splitmix(state) ^ c;
    state = out;
    return splitmix(state);
}

/** One recorded workload trace. */
struct Trace
{
    std::string workload;
    std::vector<vp::vm::TraceEvent> events;
};

/** Record @p info at @p scale into memory (VM run + RecordingSink). */
inline Trace
recordTrace(const vp::workloads::WorkloadInfo &info, int scale)
{
    vp::workloads::WorkloadConfig config;
    config.scale = scale;
    vp::vm::RecordingSink recording;
    vp::vm::Machine machine;
    machine.setSink(&recording);
    machine.run(info.build(config));
    return Trace{info.name, std::move(recording.events)};
}

/** A /proc/self/status field in MB (VmRSS, VmHWM); 0 if unreadable. */
inline double
statusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            std::istringstream fields(line.substr(key.size()));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

/**
 * In-memory span log. Each span has a name, start/end, the index of
 * its parent span (-1 for a root) and a group id shared by the spans
 * of one unit of work (one frame, one replay). Spans stay in memory
 * and are written once, at exit, as a JSON list the orchestrator
 * merges into the Perfetto timeline. A disabled log records nothing.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, unsigned lane) : enabled_(enabled), lane_(lane)
    {
    }

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int
    begin(std::string name, uint64_t id, int parent)
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), id, parent, nowNs(), 0});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int index)
    {
        if (index >= 0)
            spans_[static_cast<size_t>(index)].endNs = nowNs();
    }

    /** Append a span whose times were taken by the caller. */
    int
    add(std::string name, uint64_t id, int parent, int64_t startNs,
        int64_t endNs)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(
                {std::move(name), id, parent, startNs, endNs});
        return static_cast<int>(spans_.size() - 1);
    }

    /** JSON list of this log's spans (parents as global indices). */
    void
    writeJson(std::ostream &out, size_t indexBase, bool &first) const
    {
        for (const auto &span : spans_) {
            out << (first ? "" : ",\n") << "{\"name\": \"" << span.name
                << "\", \"id\": " << span.id << ", \"parent\": "
                << (span.parent < 0
                            ? -1
                            : static_cast<long long>(indexBase) +
                                      span.parent)
                << ", \"lane\": " << lane_
                << ", \"start_ns\": " << span.startNs
                << ", \"end_ns\": " << span.endNs << '}';
            first = false;
        }
    }

    size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        uint64_t id;
        int parent;
        int64_t startNs;
        int64_t endNs;
    };

    bool enabled_;
    unsigned lane_;
    std::vector<Span> spans_;
};

/** Write several lanes' spans to @p path as one JSON list. */
inline bool
writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    bool first = true;
    size_t base = 0;
    for (const auto *log : logs) {
        log->writeJson(out, base, first);
        base += log->size();
    }
    out << "\n]\n";
    out.close();
    return static_cast<bool>(out);
}

/** Minimal flat JSON object writer for the probes' result line. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g", value);
        return raw(key, buf);
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ");
        body_ += "\"" + key + "\": " + json;
        return *this;
    }

    std::string render() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
