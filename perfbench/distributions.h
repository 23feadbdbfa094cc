#ifndef GEMREC_PERFBENCH_DISTRIBUTIONS_H_
#define GEMREC_PERFBENCH_DISTRIBUTIONS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace gemrec::perfbench {

/// Exponential variate with the given rate: the inter-arrival gap of a
/// Poisson process. Distribution objects follow the absl
/// `random/distributions` shape — immutable parameters, `operator()`
/// draws from a caller-owned generator — on top of common/rng.
class ExponentialDistribution {
 public:
  explicit ExponentialDistribution(double rate) : rate_(rate) {}

  /// Inversion: UniformDouble() is in [0, 1), so 1 - u is in (0, 1]
  /// and the log is finite.
  double operator()(Rng& rng) const {
    return -std::log1p(-rng.UniformDouble()) / rate_;
  }

 private:
  double rate_;
};

/// Open-loop arrival schedule: intended send offsets (nanoseconds from
/// the window start) of a Poisson process at `rate` per second, for
/// `seconds` seconds. Deterministic in the generator state.
inline std::vector<int64_t> PoissonArrivals(double rate, double seconds,
                                            Rng& rng) {
  const ExponentialDistribution gap(rate);
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

/// Zipf over ranks {0, ..., n-1}: P(k) is proportional to (k + 1)^-s.
/// Sampled by rejection-inversion (Hörmann & Derflinger, "Rejection-
/// inversion to generate variates from monotone discrete
/// distributions", 1996), the method behind absl's zipf_distribution:
/// O(1) memory and expected O(1) time for any n and any s > 0.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
    h_integral_x1_ = HIntegral(1.5) - 1.0;
    h_integral_n_ = HIntegral(static_cast<double>(n_) + 0.5);
    squeeze_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  uint64_t operator()(Rng& rng) const {
    while (true) {
      const double u = h_integral_n_ +
                       rng.UniformDouble() * (h_integral_x1_ - h_integral_n_);
      const double x = HIntegralInverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
      if (k - x <= squeeze_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k) - 1;
      }
    }
  }

  /// Closed-form P(rank k), normalised over the n ranks (O(n)).
  double Probability(uint64_t k) const {
    double norm = 0.0;
    for (uint64_t i = n_; i >= 1; --i) norm += H(static_cast<double>(i));
    return H(static_cast<double>(k + 1)) / norm;
  }

 private:
  // h(x) = x^-s, its integral H(x) = (x^(1-s) - 1) / (1 - s) (log x at
  // s = 1) and that integral's inverse, written through log1p/expm1
  // helpers so s near 1 stays accurate.
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double log_x = std::log(x);
    return Helper2((1.0 - s_) * log_x) * log_x;
  }
  double HIntegralInverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
  }
  static double Helper1(double x) {  // log1p(x) / x
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double Helper2(double x) {  // expm1(x) / x
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }

  uint64_t n_;
  double s_;
  double h_integral_x1_ = 0.0;
  double h_integral_n_ = 0.0;
  double squeeze_ = 0.0;
};

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_DISTRIBUTIONS_H_
