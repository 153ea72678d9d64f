#include "common/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qismet {

RunningStats::RunningStats()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
}

void
RunningStats::add(double x)
{
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
quantile(std::vector<double> sample, double p)
{
    if (sample.empty())
        throw std::invalid_argument("quantile: empty sample");
    // Negated, so that NaN fails too: it would reach the size_t cast.
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("quantile: p outside [0, 1]");
    // A NaN has no place in the order the selection below relies on.
    for (const double x : sample)
        if (std::isnan(x))
            throw std::invalid_argument("quantile: NaN in sample");
    const double idx = p * static_cast<double>(sample.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    // The two order statistics by selection, not a full sort: the lo-th
    // smallest in place, then the next is the smallest of what lies
    // above it.
    const auto lower = sample.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(sample.begin(), lower, sample.end());
    const double upper =
        lower + 1 == sample.end() ? *lower
                                  : *std::min_element(lower + 1, sample.end());
    return *lower * (1.0 - frac) + upper * frac;
}

double
mean(const std::vector<double> &sample)
{
    if (sample.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : sample)
        sum += x;
    return sum / static_cast<double>(sample.size());
}

double
stddev(const std::vector<double> &sample)
{
    if (sample.size() < 2)
        return 0.0;
    const double m = mean(sample);
    double s = 0.0;
    for (double x : sample)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(sample.size() - 1));
}

double
medianAbsDeviation(const std::vector<double> &sample)
{
    if (sample.empty())
        return 0.0;
    const double med = quantile(sample, 0.5);
    std::vector<double> dev;
    dev.reserve(sample.size());
    for (double x : sample)
        dev.push_back(std::abs(x - med));
    return quantile(std::move(dev), 0.5);
}

std::vector<double>
movingAverage(const std::vector<double> &series, std::size_t window)
{
    if (window == 0)
        throw std::invalid_argument("movingAverage: window must be positive");
    std::vector<double> out;
    out.reserve(series.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < series.size(); ++i) {
        sum += series[i];
        if (i >= window)
            sum -= series[i - window];
        const std::size_t n = std::min(i + 1, window);
        out.push_back(sum / static_cast<double>(n));
    }
    return out;
}

double
pearson(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("pearson: length mismatch");
    if (a.size() < 2)
        return 0.0;
    const double ma = mean(a);
    const double mb = mean(b);
    double num = 0.0, da = 0.0, db = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        num += (a[i] - ma) * (b[i] - mb);
        da += (a[i] - ma) * (a[i] - ma);
        db += (b[i] - mb) * (b[i] - mb);
    }
    if (da == 0.0 || db == 0.0)
        return 0.0;
    return num / std::sqrt(da * db);
}

} // namespace qismet
