#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

void
Trace::add(Record record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

double
Trace::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Record &r : records_)
        if (r.name == name)
            total += secondsBetween(r.start, r.end);
    return total;
}

std::map<std::string, double>
Trace::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::vector<const Record *>> kids;
    for (const Record &r : records_)
        if (r.parent)
            kids[r.parent].push_back(&r);

    std::map<std::string, double> self;
    for (const Record &r : records_) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        if (auto it = kids.find(r.id); it != kids.end()) {
            for (const Record *k : it->second) {
                const auto lo = std::max(k->start, r.start);
                const auto hi = std::min(k->end, r.end);
                if (lo < hi)
                    iv.emplace_back(lo, hi);
            }
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = r.start;
        for (const auto &[lo, hi] : iv) {
            const auto from = std::max(lo, reach);
            if (hi > from) {
                covered += secondsBetween(from, hi);
                reach = hi;
            }
        }
        self[r.name] += secondsBetween(r.start, r.end) - covered;
    }
    return self;
}

json::Value
Trace::toChromeJson(Clock::time_point origin, json::Value otherData) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    json::Value events = json::Value::array();
    for (const Record &r : records_) {
        json::Value e = json::Value::object();
        e.set("name", r.name);
        e.set("cat", r.name.substr(0, r.name.find('.')));
        e.set("ph", "X");
        e.set("ts", us(r.start));
        e.set("dur", us(r.end) - us(r.start));
        e.set("pid", 1);
        e.set("tid", r.thread);
        json::Value a = json::Value::object();
        a.set("id", r.id);
        a.set("parent", r.parent);
        if (r.request)
            a.set("request", r.request);
        e.set("args", std::move(a));
        events.push(std::move(e));
    }
    json::Value root = json::Value::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    root.set("otherData", std::move(otherData));
    return root;
}

Span::Span(Trace &trace, std::string name, std::uint64_t parent,
           std::uint64_t request)
    : trace_(trace)
{
    if (!trace_.enabled())
        return;
    record_.name = std::move(name);
    record_.id = trace_.newId();
    record_.parent = parent;
    record_.request = request;
    record_.thread = threadIndex();
    record_.start = Clock::now();
}

Span::~Span()
{
    if (!trace_.enabled())
        return;
    record_.end = Clock::now();
    trace_.add(std::move(record_));
}

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

json::Value
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    json::Value fp = json::Value::object();
    fp.set("cpu", cpu);
    fp.set("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    fp.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    fp.set("compiler", std::string("gcc ") + __VERSION__);
#else
    fp.set("compiler", "unknown");
#endif
    fp.set("buildType", PERFBENCH_BUILD_TYPE);
    return fp;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace
{

std::string
recordedPath(const RunArgs &args)
{
    return args.digestDir + "/" + args.workload + ".json";
}

} // namespace

Recorded::Recorded(const RunArgs &args)
    : args_(args), digests_(json::Value::object()),
      counts_(json::Value::object())
{
    if (args.record)
        return;
    std::ifstream in(recordedPath(args));
    if (!in)
        liquid::fatal("perfbench: cannot read ", recordedPath(args));
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const json::Value root = json::parse(text);
    digests_ = root.at("digests");
    counts_ = root.at("counts");
    if (args.corruptDigest) {
        const std::string key = digests_.members().front().first;
        digests_.set(key, hex(~std::stoull(digests_.at(key).asString(),
                                           nullptr, 16)));
    }
}

void
Recorded::checkDigest(const std::string &key, std::uint64_t digest,
                      Outcome &out)
{
    const std::string got = hex(digest);
    seen_.insert(key);
    if (args_.record) {
        digests_.set(key, got);
        return;
    }
    const json::Value *want = digests_.find(key);
    out.check(want && want->asString() == got,
              args_.workload + ": " + key + " digest " + got +
                  " != recorded");
}

void
Recorded::checkCount(const std::string &name, std::uint64_t value,
                     Outcome &out)
{
    if (args_.record) {
        counts_.set(name, value);
        return;
    }
    const json::Value *want = counts_.find(name);
    out.check(want && static_cast<std::uint64_t>(want->asInt()) == value,
              args_.workload + ": count " + name + " = " +
                  std::to_string(value) + " != recorded");
}

void
Recorded::finish(Outcome &out)
{
    if (args_.record) {
        json::Value root = json::Value::object();
        root.set("digests", digests_);
        root.set("counts", counts_);
        std::ofstream file(recordedPath(args_));
        if (!file)
            liquid::fatal("perfbench: cannot write ", recordedPath(args_));
        file << root.toString(1) << '\n';
        return;
    }
    for (const auto &[key, value] : digests_.members()) {
        if (!seen_.count(key))
            out.fail(args_.workload + ": recorded " + key +
                     " was not produced");
    }
}

} // namespace perfbench
