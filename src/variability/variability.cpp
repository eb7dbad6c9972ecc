#include "variability/variability.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "trace/trace.h"
#include "util/hash.h"

namespace desync::variability {

namespace {

using util::splitmix64;

std::uint64_t hashString(std::string_view s, std::uint64_t seed) {
  util::Fnv64 h(seed ^ util::Fnv64::kOffset);
  h.update(s);
  return splitmix64(h.digest());
}

double uniform01(std::uint64_t h) {
  // 53-bit mantissa in (0,1), never exactly 0 or 1.
  return (static_cast<double>(h >> 11) + 0.5) / 9007199254740992.0;
}

}  // namespace

CornerSpec cornerSpec(Corner corner) {
  switch (corner) {
    case Corner::kBest:
      return {"best", 0.72, 1.32};
    case Corner::kTypical:
      return {"typical", 1.00, 1.20};
    case Corner::kWorst:
      return {"worst", 1.45, 1.08};
  }
  return {"typical", 1.0, 1.2};
}

VariationModel makeSpanModel(std::uint64_t seed) {
  VariationModel m;
  const double best = cornerSpec(Corner::kBest).delay_scale;
  const double worst = cornerSpec(Corner::kWorst).delay_scale;
  // +-3 sigma spans [best, worst] around their midpoint.
  m.inter_die_sigma = (worst - best) / 6.0;
  m.seed = seed;
  return m;
}

double normalQuantile(double q) {
  // Acklam's rational approximation; |relative error| < 1.15e-9.
  if (q <= 0.0 || q >= 1.0) {
    return q <= 0.0 ? -8.0 : 8.0;  // saturate
  }
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double dd[] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (q < plow) {
    double u = std::sqrt(-2.0 * std::log(q));
    return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u +
            c[5]) /
           ((((dd[0] * u + dd[1]) * u + dd[2]) * u + dd[3]) * u + 1.0);
  }
  if (q > 1.0 - plow) {
    double u = std::sqrt(-2.0 * std::log(1.0 - q));
    return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u +
             c[5]) /
           ((((dd[0] * u + dd[1]) * u + dd[2]) * u + dd[3]) * u + 1.0);
  }
  double u = q - 0.5;
  double t = u * u;
  return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t +
          a[5]) *
         u /
         (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0);
}

double normalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double interDieScaleAtQuantile(double q) {
  const double best = cornerSpec(Corner::kBest).delay_scale;
  const double worst = cornerSpec(Corner::kWorst).delay_scale;
  const double mu = 0.5 * (best + worst);
  const double sigma = (worst - best) / 6.0;
  return mu + sigma * normalQuantile(q);
}

ChipSample sampleChip(const VariationModel& model, std::uint64_t index) {
  ChipSample sample;
  const double best = cornerSpec(Corner::kBest).delay_scale;
  const double worst = cornerSpec(Corner::kWorst).delay_scale;
  const double mu = 0.5 * (best + worst);

  const std::uint64_t h = splitmix64(model.seed ^ splitmix64(index));
  double z = normalQuantile(uniform01(h));
  z = std::clamp(z, -3.0, 3.0);
  sample.global = mu + model.inter_die_sigma * z;
  sample.global = std::max(sample.global, 0.25);

  const double intra_sigma = model.intra_die_sigma;
  const std::uint64_t seed = model.seed;
  const std::uint64_t die = index;
  sample.cell_factor = [intra_sigma, seed, die](std::string_view cell) {
    if (intra_sigma <= 0.0) return 1.0;
    std::uint64_t h2 =
        hashString(cell, splitmix64(seed ^ (die * 0x9e3779b97f4a7c15ull)));
    double z2 = std::clamp(normalQuantile(uniform01(h2)), -3.0, 3.0);
    return std::max(1.0 + intra_sigma * z2, 0.5);
  };
  return sample;
}

std::vector<ChipSample> sampleChips(const VariationModel& model,
                                    std::size_t count) {
  return core::parallelMap(count, [&](std::size_t i) {
    return sampleChip(model, static_cast<std::uint64_t>(i));
  });
}

void forEachSample(
    const VariationModel& model, std::size_t count,
    const std::function<void(std::size_t, const ChipSample&)>& fn) {
  core::parallelFor(count, [&](std::size_t i) {
    trace::Span span("mc_sample", "variability");
    fn(i, sampleChip(model, static_cast<std::uint64_t>(i)));
  });
}

}  // namespace desync::variability
