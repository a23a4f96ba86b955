// Monte-Carlo workload with dynamically controlled ticket inflation
// (Section 5.2, Figure 6).
//
// Each task runs a genuine Monte-Carlo integration — estimating
// pi = integral over [0,1] of 4/(1+x^2) dx — and "periodically sets its
// ticket value to be proportional to the square of its relative error"
// (the paper's policy; it cites the sample code in Numerical Recipes
// [Pre88]). Two error models are provided:
//   * kAnalytic — error ~ 1/sqrt(n): the closed form for i.i.d. sampling,
//     giving ticket amount = scale / trials;
//   * kMeasured — the actual standard error of the running estimate
//     (sqrt(sample variance / n) / |mean|), which is what a real
//     experiment script would compute.
// A freshly started task therefore executes at a rate that starts high and
// tapers off as its error approaches that of its older siblings — the
// paper's convergent "bumps".

#ifndef SRC_WORKLOADS_MONTECARLO_H_
#define SRC_WORKLOADS_MONTECARLO_H_

#include <cstdint>

#include "src/core/currency.h"
#include "src/util/fastrand.h"
#include "src/workloads/compute.h"

namespace lottery {

class MonteCarloTask : public UnitWorkTask {
 public:
  enum class ErrorModel { kAnalytic, kMeasured };

  struct Options {
    SimDuration trial_cost = SimDuration::Micros(250);
    // Ticket amount = clamp(inflation_scale * relative_error^2, ...).
    // Under kAnalytic this reduces to inflation_scale / trials.
    int64_t inflation_scale = 100000000;
    int64_t min_amount = 1;
    int64_t max_amount = 1000000;
    ErrorModel error_model = ErrorModel::kAnalytic;
    // Seed for the integration sampler (independent of scheduling draws).
    uint32_t sampler_seed = 20260707;
  };

  // `table`/`funding_ticket` may be null (e.g. under a baseline scheduler);
  // the task then runs without inflation.
  MonteCarloTask(CurrencyTable* table, Ticket* funding_ticket,
                 Options options);

  // Wires up (or replaces) the funding ticket after construction — the
  // ticket usually cannot exist before the thread does, since it is issued
  // by LotteryScheduler::FundThread against the thread's currency.
  void AttachFunding(CurrencyTable* table, Ticket* funding_ticket) {
    table_ = table;
    funding_ticket_ = funding_ticket;
  }

  int64_t trials() const { return units_done(); }
  // Running integral estimate (converges to pi).
  double estimate() const;
  // Standard error of the estimate from the sample variance.
  double standard_error() const;
  // Relative error per the configured model.
  double relative_error() const;
  int64_t current_amount() const;

 protected:
  void OnSliceEnd(RunContext& ctx, int64_t units) override;

 private:
  CurrencyTable* table_;
  Ticket* funding_ticket_;
  Options options_;
  FastRand sampler_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace lottery

#endif  // SRC_WORKLOADS_MONTECARLO_H_
