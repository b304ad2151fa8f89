#include "core/c_regress.h"

#include <cmath>

#include "common/check.h"
#include "core/interval_extraction.h"

namespace eventhit::core {

CRegress::CRegress(std::vector<std::vector<double>> start_residuals,
                   std::vector<std::vector<double>> end_residuals, int horizon)
    : horizon_(horizon) {
  EVENTHIT_CHECK_EQ(start_residuals.size(), end_residuals.size());
  EVENTHIT_CHECK_GT(horizon, 0);
  start_.reserve(start_residuals.size());
  end_.reserve(end_residuals.size());
  for (auto& r : start_residuals) start_.emplace_back(std::move(r));
  for (auto& r : end_residuals) end_.emplace_back(std::move(r));
}

double CRegress::StartQuantile(size_t k, double alpha) const {
  EVENTHIT_CHECK_LT(k, start_.size());
  return start_[k].Quantile(alpha);
}

double CRegress::EndQuantile(size_t k, double alpha) const {
  EVENTHIT_CHECK_LT(k, end_.size());
  return end_[k].Quantile(alpha);
}

sim::Interval CRegress::Adjust(size_t k, const sim::Interval& estimate,
                               double alpha) const {
  EVENTHIT_CHECK(!estimate.empty());
  const auto q_s = static_cast<int64_t>(std::ceil(StartQuantile(k, alpha)));
  const auto q_e = static_cast<int64_t>(std::ceil(EndQuantile(k, alpha)));
  return ClampToHorizon(
      sim::Interval{estimate.start - q_s, estimate.end + q_e}, horizon_);
}

size_t CRegress::CalibrationSize(size_t k) const {
  EVENTHIT_CHECK_LT(k, start_.size());
  return start_[k].calibration_size();
}

}  // namespace eventhit::core
