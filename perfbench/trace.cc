#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

struct Record
{
    const char *name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    size_t thread;
    Clock::time_point start;
    Clock::time_point end;
};

std::atomic<bool> enabled{false};
std::atomic<uint64_t> nextId{1};
const Clock::time_point origin = Clock::now();

std::mutex recordsMutex;
std::vector<Record> records; // guarded by recordsMutex

/** Open recorded spans of this thread, innermost last. */
thread_local std::vector<uint64_t> openSpans;

double
micros(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

void
writeJsonString(std::ostream &out, const std::string &s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
    out << '"';
}

} // namespace

void
setTracing(bool on)
{
    enabled.store(on);
}

Span::Span(const char *name_, uint64_t request_)
    : name(name_), request(request_)
{
    if (enabled.load(std::memory_order_relaxed)) {
        id = nextId.fetch_add(1);
        parent = openSpans.empty() ? 0 : openSpans.back();
        openSpans.push_back(id);
    }
    start = Clock::now();
}

Span::~Span()
{
    stop();
}

double
Span::stop()
{
    if (!stopped) {
        end = Clock::now();
        stopped = true;
        if (id) {
            auto it = std::find(openSpans.rbegin(), openSpans.rend(), id);
            if (it != openSpans.rend())
                openSpans.erase(std::next(it).base());
            size_t thread =
                std::hash<std::thread::id>{}(std::this_thread::get_id());
            std::lock_guard<std::mutex> lock(recordsMutex);
            records.push_back(
                Record{name, id, parent, request, thread, start, end});
        }
    }
    return secondsBetween(start, end);
}

std::map<std::string, double>
selfTimeTotals()
{
    std::lock_guard<std::mutex> lock(recordsMutex);
    std::unordered_map<uint64_t, double> childSeconds;
    for (const Record &r : records)
        if (r.parent)
            childSeconds[r.parent] += secondsBetween(r.start, r.end);
    std::map<std::string, double> totals;
    for (const Record &r : records) {
        double own = secondsBetween(r.start, r.end);
        auto it = childSeconds.find(r.id);
        double covered = it == childSeconds.end() ? 0.0 : it->second;
        totals[r.name] += std::max(0.0, own - covered);
    }
    return totals;
}

size_t
recordedSpans()
{
    std::lock_guard<std::mutex> lock(recordsMutex);
    return records.size();
}

bool
writeChromeTrace(const std::string &path)
{
    std::map<std::string, double> self = selfTimeTotals();
    std::ofstream out(path);
    if (!out)
        return false;
    out.setf(std::ios::fixed);
    out.precision(6);
    // Chrome wants small integer thread ids; number threads in order
    // of first appearance.
    std::unordered_map<size_t, size_t> tids;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    {
        std::lock_guard<std::mutex> lock(recordsMutex);
        bool first = true;
        for (const Record &r : records) {
            size_t tid = tids.emplace(r.thread, tids.size() + 1)
                             .first->second;
            out << (first ? "\n" : ",\n") << "{\"name\":";
            writeJsonString(out, r.name);
            std::string layer(r.name);
            layer = layer.substr(0, layer.find('.'));
            out << ",\"cat\":";
            writeJsonString(out, layer);
            out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << micros(r.start)
                << ",\"dur\":" << micros(r.end) - micros(r.start)
                << ",\"args\":{\"id\":" << r.id
                << ",\"parent\":" << r.parent
                << ",\"request\":" << r.request << "}}";
            first = false;
        }
    }
    out << "\n],\"otherData\":{\"selfSeconds\":{";
    bool first = true;
    for (const auto &[name, seconds] : self) {
        out << (first ? "" : ",");
        writeJsonString(out, name);
        out << ":" << seconds;
        first = false;
    }
    out << "}}}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
