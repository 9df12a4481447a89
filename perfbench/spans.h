/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a simulator module, timed from the
 * benchmark's side of the call: name ("<layer>.<what>"), an optional
 * tag (the router architecture of a Simulator::run), host start and
 * end in seconds since the recorder was made, and the index of the
 * span that was open when it began. Spans stay in memory and are
 * written once, at exit, together with each layer's self time.
 *
 * Every timed call site takes a `Tracer *`; nullptr (the untraced
 * run) records nothing, so both runs execute the same code.
 */
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span {
    std::string name;
    std::string tag;
    double start = 0;
    double end = 0;
    int parent = -1;

    double seconds() const { return end - start; }
    std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer
{
  public:
    int
    begin(std::string name, std::string tag = {})
    {
        spans_.push_back({std::move(name), std::move(tag), now(), 0, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int id)
    {
        spans_[id].end = now();
        open_ = spans_[id].parent;
    }

    double now() const { return secondsBetween(origin_, Clock::now()); }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Sum of durations of the spans in [from, to) named @p name (and,
     * when given, tagged @p tag).
     */
    double
    total(const std::string &name, std::size_t from, std::size_t to,
          const char *tag = nullptr) const
    {
        double s = 0;
        for (std::size_t i = from; i < to; ++i) {
            if (spans_[i].name == name && (tag == nullptr || spans_[i].tag == tag))
                s += spans_[i].seconds();
        }
        return s;
    }

    /**
     * Self time per layer: each span's duration minus the part of it
     * its direct children cover (children never overlap: the
     * benchmark calls one module at a time).
     */
    std::map<std::string, double>
    selfTimeByLayer() const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childTime[static_cast<std::size_t>(s.parent)] += s.seconds();
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[spans_[i].layer()] += spans_[i].seconds() - childTime[i];
        return self;
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

/** RAII span; a null tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer *t, std::string name, std::string tag = {}) : t_(t)
    {
        if (t_ != nullptr)
            id_ = t_->begin(std::move(name), std::move(tag));
    }
    ~Scope()
    {
        if (t_ != nullptr)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_ = -1;
};

/** Per-step durations of one replayed run (one span per Network::step). */
struct StepSpans {
    int parent = -1; ///< the replay span the steps belong to
    std::vector<double> ns;
};

/** The @p q quantile (0..1) of @p v by nearest rank; v is reordered. */
inline double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
