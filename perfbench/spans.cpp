#include "spans.hh"

#include "common/logging.hh"

namespace perfbench {

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

int
SpanRecorder::open(const std::string &name, const std::string &id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.start = now();
    all.push_back(std::move(s));
    openStack.push_back(int(all.size()) - 1);
    return openStack.back();
}

void
SpanRecorder::close(int index)
{
    panic_if(openStack.empty() || openStack.back() != index,
             "span %d closed out of order", index);
    all[size_t(index)].end = now();
    openStack.pop_back();
}

double
SpanRecorder::total(const std::string &name) const
{
    double t = 0;
    for (const auto &s : all)
        if (s.name == name)
            t += s.seconds();
    return t;
}

std::map<std::string, double>
SpanRecorder::layerSelfTimes() const
{
    std::vector<double> self(all.size());
    for (size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].seconds();
    for (const auto &s : all)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.seconds();
    std::map<std::string, double> byLayer;
    for (size_t i = 0; i < all.size(); ++i)
        byLayer[all[i].name.substr(0, all[i].name.find('.'))] += self[i];
    return byLayer;
}

dlp::json::Value
SpanRecorder::chromeTrace() const
{
    using dlp::json::Value;
    Value events = Value::array();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        Value ev = Value::object();
        ev.set("name", s.name);
        ev.set("cat", s.name.substr(0, s.name.find('.')));
        ev.set("ph", "X");
        ev.set("ts", s.start * 1e6);
        ev.set("dur", s.seconds() * 1e6);
        ev.set("pid", 1);
        ev.set("tid", 1);
        Value args = Value::object();
        args.set("span", uint64_t(i));
        args.set("parent", int64_t(s.parent));
        if (!s.id.empty())
            args.set("id", s.id);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

} // namespace perfbench
