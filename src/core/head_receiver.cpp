#include "core/head_receiver.h"


namespace gurita {

void HeadReceiver::update(const SimState& state) {
  const SimJob& job = state.job(job_);
  completed_stages_ = job.completed_stages;
  observations_.clear();

  for (std::size_t i = 0; i < job.coflows.size(); ++i) {
    const SimCoflow& c = state.coflow(job.coflows[i]);
    if (!c.released() || c.finished()) continue;

    CoflowObservation obs;
    obs.stage = c.stage;
    // A receiver observes bytes received so far, for open and closed
    // connections alike; open-connection count covers active flows only.
    // All three signals come from the engine's incremental per-coflow
    // aggregates instead of a per-flow re-summation.
    const Bytes total_seen = state.coflow_bytes_sent(c.id);
    obs.open_connections = state.coflow_open_connections(c.id);
    obs.ell_max_observed = state.coflow_ell_max(c.id);
    obs.ell_avg_observed =
        c.flows.empty() ? 0.0 : total_seen / static_cast<double>(c.flows.size());
    observations_.emplace(c.id, obs);
  }
}

void HeadReceiver::save_state(snapshot::Writer& w) const {
  w.i32(completed_stages_);
  snapshot::write_table(w, observations_, [&](const CoflowObservation& obs) {
    w.i32(obs.stage);
    w.f64(obs.open_connections);
    w.f64(obs.ell_max_observed);
    w.f64(obs.ell_avg_observed);
  });
}

void HeadReceiver::load_state(snapshot::Reader& r, std::uint64_t n_coflows) {
  completed_stages_ = r.i32();
  snapshot::read_table(r, "head receiver observation", n_coflows,
                       observations_, [&](CoflowId) {
                         CoflowObservation obs;
                         obs.stage = r.i32();
                         obs.open_connections = r.f64();
                         obs.ell_max_observed = r.f64();
                         obs.ell_avg_observed = r.f64();
                         return obs;
                       });
}

}  // namespace gurita
