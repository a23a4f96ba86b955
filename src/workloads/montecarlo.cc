#include "src/workloads/montecarlo.h"

#include <algorithm>
#include <cmath>

namespace lottery {

MonteCarloTask::MonteCarloTask(CurrencyTable* table, Ticket* funding_ticket,
                               Options options)
    : UnitWorkTask(options.trial_cost),
      table_(table),
      funding_ticket_(funding_ticket),
      options_(options),
      sampler_(options.sampler_seed) {}

double MonteCarloTask::estimate() const {
  const int64_t n = trials();
  return n > 0 ? sum_ / static_cast<double>(n) : 0.0;
}

double MonteCarloTask::standard_error() const {
  const int64_t n = trials();
  if (n < 2) {
    return 1.0;
  }
  const double dn = static_cast<double>(n);
  const double mean = sum_ / dn;
  const double variance =
      std::max(0.0, (sum_sq_ - dn * mean * mean) / (dn - 1.0));
  return std::sqrt(variance / dn);
}

double MonteCarloTask::relative_error() const {
  const int64_t n = trials();
  if (n == 0) {
    return 1.0;
  }
  if (options_.error_model == ErrorModel::kAnalytic) {
    return 1.0 / std::sqrt(static_cast<double>(n));
  }
  const double mean = estimate();
  return mean != 0.0 ? standard_error() / std::abs(mean) : 1.0;
}

int64_t MonteCarloTask::current_amount() const {
  return funding_ticket_ != nullptr ? funding_ticket_->amount() : 0;
}

void MonteCarloTask::OnSliceEnd(RunContext& /*ctx*/, int64_t units) {
  // One genuine Monte-Carlo sample of the integrand 4/(1+x^2) on [0,1] per
  // trial finished in the slice, summed in completion order.
  for (int64_t i = 0; i < units; ++i) {
    const double x = sampler_.NextUnit();
    const double f = 4.0 / (1.0 + x * x);
    sum_ += f;
    sum_sq_ += f * f;
  }
  if (table_ == nullptr || funding_ticket_ == nullptr || trials() == 0) {
    return;
  }
  // Ticket value proportional to the square of the relative error.
  const double err = relative_error();
  const auto amount = static_cast<int64_t>(
      static_cast<double>(options_.inflation_scale) * err * err);
  const int64_t clamped =
      std::clamp(amount, options_.min_amount, options_.max_amount);
  if (clamped != funding_ticket_->amount()) {
    table_->SetAmount(funding_ticket_, clamped);
  }
}

}  // namespace lottery
