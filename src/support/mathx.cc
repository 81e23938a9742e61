#include "support/mathx.h"

#include <cmath>

#include "support/check.h"

namespace cwm {

namespace {

// lgamma(3) stores the sign of Γ(x) in the global `signgam`, a data race
// when concurrent IMM drivers compute their bounds; lgamma_r returns the
// same value and writes the sign to the caller's int instead.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogBinomial(uint64_t n, uint64_t k) {
  CWM_CHECK(k <= n);
  if (k == 0 || k == n) return 0.0;
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

double NormalPdf(double x) {
  static constexpr double kInvSqrt2Pi = 0.3989422804014326779399461;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double NormalCdf(double x) {
  static constexpr double kInvSqrt2 = 0.7071067811865475244008444;
  return 0.5 * std::erfc(-x * kInvSqrt2);
}

double ExpectedPositivePartNormal(double mu, double sigma) {
  if (sigma <= 0.0) return mu > 0.0 ? mu : 0.0;
  const double z = mu / sigma;
  return mu * NormalCdf(z) + sigma * NormalPdf(z);
}

double ExpectedPositivePartUniform(double mu, double a) {
  if (a <= 0.0) return mu > 0.0 ? mu : 0.0;
  // U(x) = mu + u, u ~ Uniform(-a, a). Positive part integrates piecewise.
  if (mu >= a) return mu;
  if (mu <= -a) return 0.0;
  // Integral of (mu + u) for u in [-mu, a], divided by 2a.
  const double upper = a + mu;
  return upper * upper / (4.0 * a);
}

namespace {

// 32 positive abscissae/weights of the 64-point Gauss-Legendre rule on
// [-1, 1] (symmetric; negatives mirrored). Values from Abramowitz & Stegun.
constexpr int kHalfPoints = 32;
constexpr double kAbscissa[kHalfPoints] = {
    0.0243502926634244325089558, 0.0729931217877990394495429,
    0.1214628192961205544703765, 0.1696444204239928180373136,
    0.2174236437400070841496487, 0.2646871622087674163739642,
    0.3113228719902109561575127, 0.3572201583376681159504426,
    0.4022701579639916036957668, 0.4463660172534640879849477,
    0.4894031457070529574785263, 0.5312794640198945456580139,
    0.5718956462026340342838781, 0.6111553551723932502488530,
    0.6489654712546573398577612, 0.6852363130542332425635584,
    0.7198818501716108268489402, 0.7528199072605318966118638,
    0.7839723589433414076102205, 0.8132653151227975597419233,
    0.8406292962525803627516915, 0.8659993981540928197607834,
    0.8893154459951141058534040, 0.9105221370785028057563807,
    0.9295691721319395758214902, 0.9464113748584028160624815,
    0.9610087996520537189186141, 0.9733268277899109637418535,
    0.9833362538846259569312993, 0.9910133714767443207393824,
    0.9963401167719552793469245, 0.9993050417357721394569056};
constexpr double kWeight[kHalfPoints] = {
    0.0486909570091397203833654, 0.0485754674415034269347991,
    0.0483447622348029571697695, 0.0479993885964583077281262,
    0.0475401657148303086622822, 0.0469681828162100173253263,
    0.0462847965813144172959532, 0.0454916279274181444797710,
    0.0445905581637565630601347, 0.0435837245293234533768279,
    0.0424735151236535890073398, 0.0412625632426235286101563,
    0.0399537411327203413866569, 0.0385501531786156291289625,
    0.0370551285402400460404151, 0.0354722132568823838106931,
    0.0338051618371416093915655, 0.0320579283548515535854675,
    0.0302346570724024788679741, 0.0283396726142594832275113,
    0.0263774697150546586716918, 0.0243527025687108733381776,
    0.0222701738083832541592983, 0.0201348231535302093723403,
    0.0179517157756973430850453, 0.0157260304760247193219660,
    0.0134630478967186425980608, 0.0111681394601311288185905,
    0.0088467598263639477230309, 0.0065044579689783628561174,
    0.0041470332605624676352875, 0.0017832807216964329472961};

}  // namespace

double GaussLegendre64(const std::function<double(double)>& f, double lo,
                       double hi) {
  CWM_CHECK(hi >= lo);
  const double center = 0.5 * (lo + hi);
  const double halfwidth = 0.5 * (hi - lo);
  double acc = 0.0;
  for (int i = 0; i < kHalfPoints; ++i) {
    const double dx = halfwidth * kAbscissa[i];
    acc += kWeight[i] * (f(center - dx) + f(center + dx));
  }
  return acc * halfwidth;
}

}  // namespace cwm
