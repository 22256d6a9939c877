#include "src/plc/channel_estimator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/grid/carrier_workspace.hpp"
#include "src/grid/simd.hpp"
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

/// Per-thread retune scratch: the measured SNR before and after its
/// perturbation, each carrier's reach (how far a perturbation may move it
/// without changing its level on any rung), and two spare maps for the
/// ladder's lower rungs (the top rung is built straight into the output
/// map). Sized once per thread, not once per link.
struct RetuneScratch {
  static constexpr std::size_t kRungs = 4;
  static_assert(kRungs <= grid::simd::kMaxReachMargins);
  grid::AlignedVec measured_db;
  grid::AlignedVec reach_db;
  grid::AlignedVec snr_db;
  std::array<ToneMap, 2> spare;
};

}  // namespace

void build_slot_tone_map(std::span<const double> true_snr_db, double offset_db,
                         double sigma_db, double margin_db, double depth, sim::Rng& rng,
                         const PhyParams& phy, std::uint32_t id, ToneMap& out) {
  const std::size_t n = true_snr_db.size();
  RetuneScratch& ws = grid::thread_scratch<RetuneScratch>();
  // The bit loader maximizes *goodput*, rate * (1 - PBerr): on carriers
  // near a constellation threshold it can pay to load aggressively and
  // accept block errors — which is why real HPAV links run at PBerr up to
  // ~0.4 (paper Figs. 7, 22). Try a ladder of margins below the safe one
  // and keep the best expected goodput; Definition 1's expected PBerr is
  // whatever the winning map predicts on the typical (static) channel.
  // A rung whose margin equals the previous one loads the same map, so it
  // is dropped. At zero depth the whole ladder is one rung.
  std::array<double, RetuneScratch::kRungs> margins{};
  std::size_t n_rungs = 0;
  for (double m : {margin_db, margin_db - 1.5 * depth, margin_db - 3.0 * depth,
                   margin_db - 4.5 * depth}) {
    if (n_rungs > 0 && m == margins[n_rungs - 1]) continue;
    margins[n_rungs++] = m;
  }

  // The measurement: the true SNR less the tracked offset, plus a Gaussian
  // estimation error per carrier. Its only consumer is the bit loader's
  // threshold compares, so on a multi-rung (converged, small-sigma) ladder
  // a draw that provably cannot move its carrier across any rung's
  // boundary skips its transform and reads as +0.0 (DESIGN.md §7.1). A
  // fresh estimator's one-rung ladder draws so widely that the test costs
  // more than it saves.
  ws.measured_db.resize(n);
  double* measured = ws.measured_db.data();
  for (std::size_t i = 0; i < n; ++i) measured[i] = true_snr_db[i] - offset_db;
  const double* snr = measured;
  if (sigma_db > 0.0) {
    const double* slack = nullptr;
    if (n_rungs > 1) {
      ws.reach_db.resize(n);
      grid::simd::active_kernels().bit_load_reach_n(
          bit_load_table(), margins.data(), n_rungs, measured, n, ws.reach_db.data());
      slack = ws.reach_db.data();
    }
    ws.snr_db.resize(n);
    double* perturbed = ws.snr_db.data();
    rng.normal_fill(perturbed, n, 0.0, sigma_db, slack);
    for (std::size_t i = 0; i < n; ++i) perturbed[i] = measured[i] + perturbed[i];
    snr = perturbed;
  }

  // Walk the ladder from its most aggressive rung down. Margins never grow
  // along the walk, so levels, the bit total and the rate never shrink
  // toward the top; and every score, rate * (1 - min(PBerr, 0.45)), is at
  // most its rate. Once a rung's rate is below the best score no rung under
  // it can reach that score, so the walk stops there. A rung with the bit
  // total of the one above it has every carrier at the same level (bits
  // strictly grow with the level), so it is that map again and scores the
  // same: nothing to score. Taking ties on the way down leaves them with the
  // lowest rung, as an ascending strict scan would; if every score is NaN,
  // the bottom rung wins with expected 0.
  ToneMap* best = nullptr;
  ToneMap* built = nullptr;
  double best_score = -1.0;
  double best_expected = 0.0;
  double bits_above = -1.0;
  for (std::size_t k = n_rungs; k-- > 0;) {
    built = k + 1 == n_rungs ? &out
                             : (best == &ws.spare[0] ? &ws.spare[1] : &ws.spare[0]);
    built->rebuild_from_snr({snr, n}, margins[k], phy, id);
    const double rate = built->phy_rate_mbps();
    if (rate < best_score) break;
    if (built->bits_per_symbol() == bits_above) continue;
    bits_above = built->bits_per_symbol();
    const double expected =
        std::min(built->pb_error_probability(true_snr_db, phy), 0.45);
    const double score = rate * (1.0 - expected);
    if (score >= best_score) {
      best_score = score;
      best_expected = expected;
      best = built;
    }
  }
  if (best == nullptr) best = built;
  if (best != &out) out = *best;
  out.set_expected_pberr(best_expected);
}

void ChannelEstimator::build_slot_map(int slot, sim::Time now, double margin_db,
                                      std::uint32_t id, ToneMap& out) const {
  // The receiver's measurements include part of the instantaneous noise and
  // a per-carrier estimation error that shrinks with accumulated samples.
  // Gambling below the safe margin requires *knowing* the channel: scale
  // the ladder's depth by confidence, so a freshly reset device starts
  // conservative and earns its aggressiveness with samples (Fig. 16).
  const std::vector<double>& true_snr = channel_.static_snr_db(tx_, rx_, slot, now);
  const double offset = channel_.fast_offset_db(rx_, now) * cfg_.offset_tracking;
  const double uncertainty = current_uncertainty_db();
  build_slot_tone_map(true_snr, offset, 0.3 * uncertainty, margin_db,
                      std::clamp(1.0 - uncertainty / 6.0, 0.0, 1.0), rng_,
                      channel_.phy(), id, out);
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
