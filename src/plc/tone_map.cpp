#include "src/plc/tone_map.hpp"

#include <cassert>
#include <cmath>

#include "src/grid/db_units.hpp"
#include "src/obs/obs.hpp"

namespace efd::plc {

namespace {

/// Coding gain of the rate-16/21 turbo code, applied when evaluating error
/// probabilities (the bit-loading thresholds in modulation.cpp already net
/// it out).
constexpr double kCodingGainDb = 7.0;

/// Map a mean uncoded BER to a PB (512 B block) error probability through a
/// turbo-decoder waterfall: blocks survive below ~1e-4 BER and are lost
/// almost surely above ~1e-2.
double fec_waterfall(double mean_ber) {
  if (mean_ber <= 0.0) return 0.0;
  const double x = std::log10(mean_ber);
  const double p = 1.0 / (1.0 + std::exp(-6.0 * (x + 2.7)));
  return p;
}

}  // namespace

void ToneMap::recompute() {
  EFD_PROF_SCOPE("plc.tonemap_recompute");
  const std::size_t n = carriers_.size();
  const std::int32_t row_len = ber_lut_view().size;
  lut_rows_.resize(n);
  bits_.resize(n);
  double bits = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int b = efd::plc::bits_per_symbol(carriers_[i]);
    bits += b;
    bits_[i] = static_cast<double>(b);
    lut_rows_[i] = static_cast<std::int32_t>(carriers_[i]) * row_len;
  }
  set_totals(bits);
}

void ToneMap::set_totals(double bits) {
  bits /= robo_repetitions_;
  bits_per_symbol_ = bits;
  phy_rate_mbps_ = bits * fec_rate_ / symbol_us_;
  ble_mbps_ = phy_rate_mbps_ * (1.0 - expected_pberr_);
}

ToneMap ToneMap::from_snr(std::span<const double> snr_db, double margin_db,
                          const PhyParams& phy, double expected_pberr,
                          std::uint32_t id) {
  ToneMap tm;
  tm.rebuild_from_snr(snr_db, margin_db, phy, id);
  tm.set_expected_pberr(expected_pberr);
  return tm;
}

void ToneMap::rebuild_from_snr(std::span<const double> snr_db, double margin_db,
                               const PhyParams& phy, std::uint32_t id) {
  EFD_PROF_SCOPE("plc.tonemap_recompute");
  static_assert(sizeof(Modulation) == sizeof(std::uint8_t));
  const std::size_t n = snr_db.size();
  fec_rate_ = phy.fec_rate;
  symbol_us_ = phy.symbol.us();
  expected_pberr_ = 0.0;
  id_ = id;
  robo_repetitions_ = 1;
  carriers_.resize(n);
  lut_rows_.resize(n);
  bits_.resize(n);
  // The levels are Modulation values, written through the byte view of the
  // carriers. The integer bit total is exact at every partial sum, so it
  // equals the double accumulation recompute() performs.
  const std::int64_t bits = grid::simd::active_kernels().bit_load_n(
      bit_load_table(), snr_db.data(), margin_db, n,
      reinterpret_cast<std::uint8_t*>(carriers_.data()), lut_rows_.data(),
      bits_.data());
  set_totals(static_cast<double>(bits));
}

ToneMap ToneMap::from_carriers(std::vector<Modulation> carriers, const PhyParams& phy,
                               double expected_pberr, std::uint32_t id) {
  ToneMap tm;
  tm.fec_rate_ = phy.fec_rate;
  tm.symbol_us_ = phy.symbol.us();
  tm.expected_pberr_ = expected_pberr;
  tm.id_ = id;
  tm.carriers_ = std::move(carriers);
  tm.recompute();
  return tm;
}

ToneMap ToneMap::robo(const PhyParams& phy, const RoboMode& robo) {
  ToneMap tm;
  tm.fec_rate_ = 0.5;  // ROBO uses the robust rate-1/2 code
  tm.symbol_us_ = phy.symbol.us();
  tm.expected_pberr_ = 0.0;
  tm.id_ = 0;
  tm.robo_repetitions_ = robo.repetitions;
  tm.carriers_.assign(static_cast<std::size_t>(phy.band.n_carriers),
                      Modulation::kQpsk);
  tm.recompute();
  return tm;
}

namespace {

Modulation demote(Modulation m) {
  switch (m) {
    case Modulation::kQam1024: return Modulation::kQam256;
    case Modulation::kQam256: return Modulation::kQam64;
    case Modulation::kQam64: return Modulation::kQam16;
    case Modulation::kQam16: return Modulation::kQam8;
    case Modulation::kQam8: return Modulation::kQpsk;
    case Modulation::kQpsk: return Modulation::kBpsk;
    default: return Modulation::kOff;
  }
}

}  // namespace

void ToneMap::clamp_to_rate(double rate_mbps, std::uint32_t id) {
  assert(!is_robo());
  if (ble_mbps_ <= rate_mbps) return;
  const double bits_target =
      rate_mbps * symbol_us_ / (fec_rate_ * (1.0 - expected_pberr_));
  double bits = bits_per_symbol_;
  for (int pass = 0; pass < kModulationCount && bits > bits_target; ++pass) {
    for (Modulation& m : carriers_) {
      if (bits <= bits_target) break;
      const Modulation lower = demote(m);
      bits -= efd::plc::bits_per_symbol(m) - efd::plc::bits_per_symbol(lower);
      m = lower;
    }
  }
  id_ = id;
  recompute();
}

double ToneMap::pb_error_probability(std::span<const double> actual_snr_db,
                                     const PhyParams& phy) const {
  return pb_error_probability(actual_snr_db, phy, grid::simd::active_kernels());
}

double ToneMap::pb_error_probability(
    std::span<const double> actual_snr_db, const PhyParams& phy,
    const grid::simd::CarrierKernels& kernels) const {
  (void)phy;
  EFD_PROF_SCOPE("plc.pberr");
  EFD_PROF_SCOPE(kernels.name);  // nests under plc.pberr
  assert(actual_snr_db.size() == carriers_.size());
  if (robo_repetitions_ > 1) {
    // ROBO interleaves each bit's copies across *different* carriers, so a
    // copy landing in a deep notch is rescued by copies on clean carriers:
    // combining approximates summing the linear SNRs of the copies, i.e.
    // repetitions times the mean linear SNR. This is what makes broadcast
    // frames decodable on links whose data quality is poor (§8.1).
    const double mean_linear = mean_linear_snr(actual_snr_db);
    const double combined_db =
        grid::linear_to_db(robo_repetitions_ * std::max(1e-6, mean_linear));
    const double ber =
        uncoded_ber(Modulation::kQpsk, combined_db + kCodingGainDb);
    return fec_waterfall(ber);
  }
  double weighted_ber = 0.0;
  double total_bits = 0.0;
  kernels.ber_weighted_sum_n(ber_lut_view(), lut_rows_.data(), bits_.data(),
                             actual_snr_db.data(), kCodingGainDb,
                             actual_snr_db.size(), &weighted_ber, &total_bits);
  if (total_bits == 0.0) return 1.0;  // nothing loaded: undecodable
  return fec_waterfall(weighted_ber / total_bits);
}

double mean_linear_snr(std::span<const double> snr_db) {
  double sum = 0.0;
  for (const double db : snr_db) sum += grid::db_to_linear(db);
  return sum / static_cast<double>(snr_db.size());
}

double ToneMapSet::average_ble_mbps() const {
  if (slots.empty()) return robo.ble_mbps();
  double sum = 0.0;
  for (const ToneMap& tm : slots) sum += tm.ble_mbps();
  return sum / static_cast<double>(slots.size());
}

}  // namespace efd::plc
