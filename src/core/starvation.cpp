#include "core/starvation.h"

#include <algorithm>

#include "common/check.h"

namespace gurita {

std::vector<double> spq_waiting_times(const std::vector<double>& rho) {
  GURITA_CHECK_MSG(!rho.empty(), "no queues");
  double sigma = 0;
  for (double r : rho) {
    GURITA_CHECK_MSG(r >= 0, "negative load");
    sigma += r;
  }
  GURITA_CHECK_MSG(sigma < 1.0, "total load must be < 1 for stability");

  std::vector<double> w;
  w.reserve(rho.size());
  double sigma_prev = 0;
  double sigma_cur = 0;
  for (double r : rho) {
    sigma_cur += r;
    w.push_back(1.0 / ((1.0 - sigma_prev) * (1.0 - sigma_cur)));
    sigma_prev = sigma_cur;
  }
  // Normalize so W_0 = 1 (only ratios matter downstream).
  const double w0 = w.front();
  for (double& x : w) x /= w0;
  return w;
}

std::vector<double> wrr_weights(const std::vector<double>& waiting_times,
                                double min_queue_ratio) {
  GURITA_CHECK_MSG(!waiting_times.empty(), "no queues");
  GURITA_CHECK_MSG(min_queue_ratio >= 1.0, "min_queue_ratio must be >= 1");
  std::vector<double> inv;
  inv.reserve(waiting_times.size());
  for (double w : waiting_times) {
    GURITA_CHECK_MSG(w > 0, "waiting time must be positive");
    inv.push_back(1.0 / w);
  }
  for (std::size_t i = 1; i < inv.size(); ++i)
    inv[i] = std::min(inv[i], inv[i - 1] / min_queue_ratio);
  double total = 0;
  for (double x : inv) total += x;
  for (double& x : inv) x /= total;
  return inv;
}

std::vector<double> wrr_weights_from_demand(const std::vector<double>& demand,
                                            double total_utilization,
                                            double min_queue_ratio) {
  GURITA_CHECK_MSG(!demand.empty(), "no queues");
  GURITA_CHECK_MSG(total_utilization > 0 && total_utilization < 1,
                   "total utilization must be in (0,1)");
  double total = 0;
  for (double d : demand) {
    GURITA_CHECK_MSG(d >= 0, "negative demand");
    total += d;
  }
  std::vector<double> rho(demand.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < demand.size(); ++i)
      rho[i] = demand[i] / total * total_utilization;
  }
  return wrr_weights(spq_waiting_times(rho), min_queue_ratio);
}

std::vector<double> enforce_queues(std::vector<QueuedCoflow>& table,
                                   int queues, bool wrr) {
  // Whole flow counts sum exactly in any order.
  std::vector<double> demand(static_cast<std::size_t>(queues), 0.0);
  for (const QueuedCoflow& c : table) {
    GURITA_CHECK_MSG(!wrr || c.flows > 0, "WRR row without active flows");
    demand[static_cast<std::size_t>(c.queue)] += c.flows;
  }
  const std::vector<double> weights =
      wrr ? wrr_weights_from_demand(demand, kWrrTotalUtilization,
                                    kWrrMinQueueRatio)
          : std::vector<double>{};
  for (QueuedCoflow& c : table) {
    const auto q = static_cast<std::size_t>(c.queue);
    c.tier = wrr ? 0 : c.queue;
    c.weight = wrr ? std::max(weights[q] / demand[q], 1e-9) : 1.0;
  }
  return weights;
}

}  // namespace gurita
