#include "common/stats.h"

#include <iomanip>
#include <ostream>

namespace glb {

double Histogram::PercentileApprox(double p) const {
  const std::uint64_t cnt = s_.count;
  const std::uint64_t mn = s_.min_raw;
  const std::uint64_t mx = s_.max_raw;
  if (cnt == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // The extremes are tracked exactly, so return them exactly: p=1.0
  // used to interpolate partway into the top occupied bucket and could
  // come back below max() (and p=0.0 above min()).
  if (p <= 0.0) return static_cast<double>(mn);
  if (p >= 1.0) return static_cast<double>(mx);
  // Target rank in [0, count-1]; walk buckets until it falls inside one.
  double target = p * static_cast<double>(cnt - 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    std::uint64_t n = bucket(i);
    if (n == 0) continue;
    if (target < static_cast<double>(seen + n)) {
      double frac = (target - static_cast<double>(seen)) / static_cast<double>(n);
      // Bucket 0 holds only {0, 1}; bucket i>=1 holds [2^i, 2^(i+1));
      // the top bucket is open-ended (BucketOf clamps into it).
      // Intersect the span with the observed [min, max+1) so the
      // interpolation never ranges over values the histogram cannot
      // contain (top bucket reaching past max, bucket 0 reaching 2).
      double lo = i == 0 ? 0.0 : static_cast<double>(1ull << i);
      double hi = i == 0 ? 2.0 : static_cast<double>(1ull << (i + 1));
      lo = std::max(lo, static_cast<double>(mn));
      hi = std::min(hi, static_cast<double>(mx) + 1.0);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(mn), static_cast<double>(mx));
    }
    seen += n;
  }
  return static_cast<double>(mx);
}

void Histogram::Merge(const Histogram& other) {
  const State& o = other.s_;
  if (o.count == 0) return;
  s_.count += o.count;
  s_.sum += o.sum;
  s_.min_raw = std::min(s_.min_raw, o.min_raw);
  s_.max_raw = std::max(s_.max_raw, o.max_raw);
  for (std::size_t i = 0; i < s_.buckets.size(); ++i) s_.buckets[i] += o.buckets[i];
}

Counter* StatSet::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(std::string(name), c);
  return c;
}

Histogram* StatSet::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  histogram_storage_.emplace_back();
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(std::string(name), h);
  return h;
}

std::uint64_t StatSet::CounterValue(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Histogram* StatSet::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second;
}

std::uint64_t StatSet::SumCountersWithPrefix(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second->value();
  }
  return total;
}

void StatSet::Print(std::ostream& os) const {
  for (const auto& [name, c] : counters_) {
    os << std::left << std::setw(48) << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << std::left << std::setw(48) << name << " count=" << h->count()
       << " mean=" << std::fixed << std::setprecision(2) << h->mean()
       << " min=" << h->min() << " max=" << h->max()
       << " p50=" << h->PercentileApprox(0.50) << " p95=" << h->PercentileApprox(0.95)
       << " p99=" << h->PercentileApprox(0.99) << '\n';
  }
}

void StatSet::PrintCsv(std::ostream& os) const {
  os << "stat,count,sum,mean,min,max,p50,p95,p99\n";
  for (const auto& [name, c] : counters_) {
    os << name << ",1," << c->value() << ',' << c->value() << ',' << c->value()
       << ',' << c->value() << ',' << c->value() << ',' << c->value() << ','
       << c->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ',' << h->count() << ',' << h->sum() << ',' << h->mean() << ','
       << h->min() << ',' << h->max() << ',' << h->PercentileApprox(0.50) << ','
       << h->PercentileApprox(0.95) << ',' << h->PercentileApprox(0.99) << '\n';
  }
}

void StatSet::Reset() {
  for (auto& c : counter_storage_) c = Counter{};
  for (auto& h : histogram_storage_) h = Histogram{};
}

}  // namespace glb
