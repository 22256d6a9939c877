#include "src/plc/channel_estimator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/grid/carrier_workspace.hpp"
#include "src/obs/obs.hpp"

namespace efd::plc {

ChannelEstimator::ChannelEstimator(const PlcChannel& channel, net::StationId tx,
                                   net::StationId rx, sim::Rng rng, Config config)
    : channel_(channel), tx_(tx), rx_(rx), rng_(rng), cfg_(config) {
  maps_.robo = ToneMap::robo(channel_.phy());
}

double ChannelEstimator::current_uncertainty_db() const {
  return cfg_.uncertainty_db /
         std::sqrt(1.0 + static_cast<double>(pb_samples_) / cfg_.uncertainty_n0);
}

namespace {

/// Per-thread retune scratch: the perturbed SNR estimate and the margin
/// ladder's spare rungs (the first rung is built straight into the output
/// map). Sized once per thread, not once per link.
struct RetuneScratch {
  static constexpr std::size_t kRungs = 4;
  grid::AlignedVec snr_db;
  std::array<ToneMap, kRungs - 1> spare;
};

}  // namespace

void ChannelEstimator::build_slot_map(int slot, sim::Time now, double margin_db,
                                      std::uint32_t id, ToneMap& out) const {
  const PhyParams& phy = channel_.phy();
  const std::vector<double>& true_snr = channel_.static_snr_db(tx_, rx_, slot, now);
  const std::size_t n = true_snr.size();
  RetuneScratch& ws = grid::thread_scratch<RetuneScratch>();
  ws.snr_db.resize(n);
  double* snr = ws.snr_db.data();
  // The receiver's measurements include part of the instantaneous noise and
  // a per-carrier estimation error that shrinks with accumulated samples.
  const double offset = channel_.fast_offset_db(rx_, now) * cfg_.offset_tracking;
  const double sigma = 0.3 * current_uncertainty_db();
  if (sigma > 0.0) {
    rng_.normal_fill(snr, n, 0.0, sigma);
    for (std::size_t i = 0; i < n; ++i) snr[i] = (true_snr[i] - offset) + snr[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) snr[i] = true_snr[i] - offset;
  }
  // The bit loader maximizes *goodput*, rate * (1 - PBerr): on carriers
  // near a constellation threshold it can pay to load aggressively and
  // accept block errors — which is why real HPAV links run at PBerr up to
  // ~0.4 (paper Figs. 7, 22). Try a ladder of margins below the safe one
  // and keep the best expected goodput; Definition 1's expected PBerr is
  // whatever the winning map predicts on the typical (static) channel.
  // Gambling below the safe margin requires *knowing* the channel: scale
  // the ladder's depth by confidence, so a freshly reset device starts
  // conservative and earns its aggressiveness with samples (Fig. 16).
  const double depth =
      std::clamp(1.0 - current_uncertainty_db() / 6.0, 0.0, 1.0);
  // A rung whose margin equals the previous one loads the same map and
  // scores the same, so it can never win (the comparison is strict): skip
  // it. At zero depth the whole ladder is one rung.
  std::array<double, RetuneScratch::kRungs> margins{};
  std::array<ToneMap*, RetuneScratch::kRungs> rungs{};
  std::size_t n_rungs = 0;
  for (double m : {margin_db, margin_db - 1.5 * depth, margin_db - 3.0 * depth,
                   margin_db - 4.5 * depth}) {
    if (n_rungs > 0 && m == margins[n_rungs - 1]) continue;
    margins[n_rungs] = m;
    rungs[n_rungs] = n_rungs == 0 ? &out : &ws.spare[n_rungs - 1];
    ++n_rungs;
  }
  ToneMap::from_snr_ladder({snr, n}, {margins.data(), n_rungs}, phy, id,
                           {rungs.data(), n_rungs});
  std::size_t best = 0;
  double best_score = -1.0;
  double best_expected = 0.0;
  for (std::size_t k = 0; k < n_rungs; ++k) {
    const double expected =
        std::min(rungs[k]->pb_error_probability(true_snr, phy), 0.45);
    const double score = rungs[k]->phy_rate_mbps() * (1.0 - expected);
    if (score > best_score) {
      best_score = score;
      best_expected = expected;
      best = k;
    }
  }
  if (best != 0) out = *rungs[best];
  out.set_expected_pberr(best_expected);
}

void ChannelEstimator::retune(sim::Time now, bool error_triggered) {
  EFD_PROF_SCOPE("plc.tonemap_adapt");
  const PhyParams& phy = channel_.phy();
  if (error_triggered) {
    // Severity-scaled back-off: *sustained* error pressure (capture-effect
    // collisions under background traffic) makes the vendor algorithm
    // return very low BLE values (§6.2's HPAV500 observation, §8.2), while
    // the ~1% error duty of ordinary impulse noise stays below the knee and
    // costs only small dips (the paper's good-link behaviour in Fig. 10).
    const double sustained =
        std::max(0.0, pberr_ewma_slow_ - expected_pberr_ - 0.03);
    const double severity = 1.0 + 8.0 * std::min(1.0, sustained / 0.1);
    panic_margin_db_ += cfg_.panic_margin_db * severity;
    panic_margin_db_ = std::min(panic_margin_db_, 14.0);
  } else {
    panic_margin_db_ *= cfg_.panic_decay;
    if (panic_margin_db_ < 0.05) panic_margin_db_ = 0.0;
  }
  const double margin =
      cfg_.base_margin_db + current_uncertainty_db() + panic_margin_db_;
  margin_at_last_retune_ = margin;

  // Rebuilt in place: once a link has maps, a retune allocates nothing.
  maps_.slots.resize(static_cast<std::size_t>(phy.tone_map_slots));
  const bool clamp =
      pbs_per_frame_ewma_ <= cfg_.clamp_pb_threshold && pb_samples_ > 50;
  double expected_sum = 0.0;
  for (int s = 0; s < phy.tone_map_slots; ++s) {
    ToneMap& tm = maps_.slots[static_cast<std::size_t>(s)];
    build_slot_map(s, now, margin, next_id_++, tm);
    if (clamp) tm.clamp_to_rate(phy.single_pb_symbol_rate_mbps(), next_id_++);
    expected_sum += tm.expected_pberr();
  }
  expected_pberr_ = expected_sum / phy.tone_map_slots;
  has_maps_ = true;
  created_ = now;
  last_update_ = now;
  ++update_count_;
  EFD_COUNTER_INC("plc.est.tonemap_updates");
  if (error_triggered) EFD_COUNTER_INC("plc.est.error_retunes");
  // Errors that triggered this retune are presumed handled.
  if (error_triggered) pberr_ewma_ *= 0.25;
}

void ChannelEstimator::on_sound_frame(sim::Time now) {
  EFD_COUNTER_INC("plc.est.sound_frames");
  // A handful of sound PBs seed the statistics.
  pb_samples_ += 3;
  if (!has_maps_) retune(now, /*error_triggered=*/false);
}

void ChannelEstimator::on_frame_received(int slot, int n_pbs, int n_errors,
                                         int n_symbols, sim::Time now) {
  (void)slot;
  assert(n_pbs >= 0 && n_errors >= 0 && n_errors <= n_pbs);
  EFD_COUNTER_ADD("plc.est.pbs_rx", n_pbs);
  EFD_COUNTER_ADD("plc.est.pb_errors", n_errors);
  pb_samples_ += static_cast<std::uint64_t>(n_pbs);
  if (n_pbs > 0) {
    const double frame_err =
        static_cast<double>(n_errors) / static_cast<double>(n_pbs);
    pberr_ewma_ += cfg_.pberr_alpha * (frame_err - pberr_ewma_);
    pberr_ewma_slow_ += 0.02 * (frame_err - pberr_ewma_slow_);
    ampstat_ewma_ += 0.03 * (frame_err - ampstat_ewma_);
    symbols_per_frame_ewma_ +=
        0.05 * (static_cast<double>(n_symbols) - symbols_per_frame_ewma_);
    pbs_per_frame_ewma_ +=
        0.05 * (static_cast<double>(n_pbs) - pbs_per_frame_ewma_);
  }
  if (!has_maps_) {
    retune(now, false);
    return;
  }
  // Error trigger is *relative* to the map's expected residual error rate:
  // an aggressively loaded map is supposed to see its design PBerr.
  if (pberr_ewma_ - expected_pberr_ > cfg_.error_retune_threshold) {
    retune(now, /*error_triggered=*/true);
    return;
  }
  // Improvement-driven retune: enough new samples have accumulated that the
  // bit loading would change materially. This is what makes the estimated
  // capacity converge faster at higher probe rates (Fig. 16).
  const double margin_now =
      cfg_.base_margin_db + current_uncertainty_db() + panic_margin_db_;
  if (now - last_update_ >= cfg_.improve_min_interval &&
      std::abs(margin_now - margin_at_last_retune_) > cfg_.improve_margin_db) {
    retune(now, /*error_triggered=*/false);
    return;
  }
  maybe_expire(now);
}

void ChannelEstimator::maybe_expire(sim::Time now) {
  if (!has_maps_) return;
  if (now - created_ >= cfg_.expiry) retune(now, /*error_triggered=*/false);
}

void ChannelEstimator::reset(sim::Time now) {
  maps_.slots.clear();
  maps_.robo = ToneMap::robo(channel_.phy());
  has_maps_ = false;
  created_ = now;
  last_update_ = now;
  pb_samples_ = 0;
  expected_pberr_ = 0.0;
  pberr_ewma_ = 0.0;
  pberr_ewma_slow_ = 0.0;
  ampstat_ewma_ = 0.0;
  panic_margin_db_ = 0.0;
  symbols_per_frame_ewma_ = 10.0;
  pbs_per_frame_ewma_ = 10.0;
}

void ChannelEstimator::invalidate_tone_maps(sim::Time now) {
  maps_.slots.clear();
  has_maps_ = false;
  created_ = now;
  // Relax the trigger EWMAs: the error burst that killed the maps should
  // not immediately re-trip the error retune once fresh maps exist.
  pberr_ewma_ = 0.0;
  pberr_ewma_slow_ = 0.0;
}

double ChannelEstimator::ble_mbps(int slot) const {
  if (!has_maps_) return maps_.robo.ble_mbps();
  assert(slot >= 0 && slot < static_cast<int>(maps_.slots.size()));
  return maps_.slots[static_cast<std::size_t>(slot)].ble_mbps();
}

}  // namespace efd::plc
