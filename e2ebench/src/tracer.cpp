#include "tracer.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

std::uint32_t
Tracer::open(const char *name, std::uint32_t parent, std::uint64_t run)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.run = run;
    span.begin = ns(Clock::now());
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size());
}

void
Tracer::close(std::uint32_t id)
{
    spans_.at(id - 1).end = ns(Clock::now());
}

void
Tracer::record(const char *name, std::uint64_t run, std::uint32_t lane,
               Clock::time_point begin, Clock::time_point end)
{
    Span span;
    span.name = name;
    span.run = run;
    span.lane = lane;
    span.begin = ns(begin);
    span.end = ns(end);
    spans_.push_back(span);
}

SpanStat
Tracer::stat(std::string_view name) const
{
    SpanStat s;
    for (const Span &span : spans_) {
        if (span.end < 0 || name != span.name)
            continue;
        ++s.count;
        s.totalNs += static_cast<double>(span.end - span.begin);
    }
    return s;
}

void
Tracer::writeChromeJson(const std::string &path,
                        const std::string &metadata) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write trace file '" + path + "'");
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
        << ",\"traceEvents\":[";
    char buf[384];
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < 0)
            continue;
        const std::string_view name(s.name);
        const std::string_view cat = name.substr(0, name.find('.'));
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%u,\"run\":%llu}}",
                      first ? "" : ",\n", s.name,
                      static_cast<int>(cat.size()), cat.data(), s.lane,
                      static_cast<double>(s.begin) / 1e3,
                      static_cast<double>(s.end - s.begin) / 1e3, i + 1,
                      s.parent, static_cast<unsigned long long>(s.run));
        out << buf;
        first = false;
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("short write to trace file '" + path +
                                 "'");
}

} // namespace e2e
