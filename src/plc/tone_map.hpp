#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/plc/modulation.hpp"
#include "src/plc/phy.hpp"

namespace efd::plc {

/// A tone map: one modulation per OFDM carrier plus the FEC rate and the
/// PB error rate expected when it was generated (IEEE 1901; paper §2.1 and
/// Definition 1). The receiver estimates it and sends it to the source; the
/// BLE in every SoF delimiter is derived from it via Eq. (1):
///
///     BLE = B * R * (1 - PBerr) / Tsym
class ToneMap {
 public:
  ToneMap() = default;

  /// Bit-load from a per-carrier SNR estimate: each carrier gets the largest
  /// constellation whose threshold plus `margin_db` is at or below its SNR.
  static ToneMap from_snr(std::span<const double> snr_db, double margin_db,
                          const PhyParams& phy, double expected_pberr,
                          std::uint32_t id);

  /// Bit-load one SNR estimate at several margins, the estimator's margin
  /// ladder (ChannelEstimator::build_slot_map): `*out[k]` is rebuilt in
  /// place, reusing its buffers, into what `from_snr(snr_db, margins_db[k],
  /// phy, 0.0, id)` returns. Each rung is one call of the active carrier
  /// kernels' exact `bit_load_n`, which writes the carriers and both SoA
  /// mirrors directly.
  static void from_snr_ladder(std::span<const double> snr_db,
                              std::span<const double> margins_db, const PhyParams& phy,
                              std::uint32_t id, std::span<ToneMap* const> out);

  /// Build from an explicit per-carrier assignment.
  static ToneMap from_carriers(std::vector<Modulation> carriers, const PhyParams& phy,
                               double expected_pberr, std::uint32_t id);

  /// The default/ROBO tone map used for sound frames and broadcast (§2.1).
  static ToneMap robo(const PhyParams& phy, const RoboMode& robo = {});

  /// Eq. (1), in Mb/s.
  [[nodiscard]] double ble_mbps() const { return ble_mbps_; }

  /// Raw PHY rate B*R/Tsym in Mb/s (no PBerr discount): the rate at which
  /// PB bits are clocked onto the wire, used for airtime computation.
  [[nodiscard]] double phy_rate_mbps() const { return phy_rate_mbps_; }

  /// B: total bits per OFDM symbol across carriers.
  [[nodiscard]] double bits_per_symbol() const { return bits_per_symbol_; }

  [[nodiscard]] double expected_pberr() const { return expected_pberr_; }
  /// Replace the expected PB error rate, and with it the BLE of Eq. (1).
  void set_expected_pberr(double expected_pberr) {
    expected_pberr_ = expected_pberr;
    ble_mbps_ = phy_rate_mbps_ * (1.0 - expected_pberr_);
  }

  /// Single-PB, single-symbol probes buy no airtime with spare rate, only
  /// errors (Fig. 18): demote carriers one constellation step at a time, in
  /// round-robin passes, until the BLE lands at `rate_mbps`, and take the
  /// new `id`. In place; a map already at or below the rate is untouched.
  void clamp_to_rate(double rate_mbps, std::uint32_t id);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] bool is_robo() const { return robo_repetitions_ > 1; }
  [[nodiscard]] int robo_repetitions() const { return robo_repetitions_; }
  [[nodiscard]] const std::vector<Modulation>& carriers() const { return carriers_; }

  /// PB error probability if this tone map is used while the channel
  /// actually provides `actual_snr_db` per carrier: mean uncoded BER over
  /// loaded carriers pushed through the turbo-FEC waterfall. Runs on the
  /// process-wide carrier kernels (grid::simd::active_kernels()).
  [[nodiscard]] double pb_error_probability(std::span<const double> actual_snr_db,
                                            const PhyParams& phy) const;

  /// Same, on an explicit kernel entry — lets the differential tests and the
  /// odd-tail sweeps pin every compiled-in implementation.
  [[nodiscard]] double pb_error_probability(
      std::span<const double> actual_snr_db, const PhyParams& phy,
      const grid::simd::CarrierKernels& kernels) const;

 private:
  std::vector<Modulation> carriers_;
  // Structure-of-arrays mirrors of carriers_, rebuilt by recompute(): the
  // BER-LUT row offset (modulation * row length) and the bit weight of each
  // carrier, in the exact layout ber_weighted_sum_n consumes. kOff carriers
  // keep row 0 (all-zero) and weight 0.0, so the batch reduction needs no
  // "carrier off" branch.
  std::vector<std::int32_t> lut_rows_;
  std::vector<double> bits_;
  double fec_rate_ = 16.0 / 21.0;
  double symbol_us_ = 46.52;
  double expected_pberr_ = 0.0;
  std::uint32_t id_ = 0;
  int robo_repetitions_ = 1;
  // Cached derived quantities.
  double bits_per_symbol_ = 0.0;
  double phy_rate_mbps_ = 0.0;
  double ble_mbps_ = 0.0;

  void recompute();
  /// Derive bits_per_symbol_/phy_rate_mbps_/ble_mbps_ from the carriers'
  /// summed bit loading.
  void set_totals(double bits);
};

/// The up-to-7 tone maps of a link direction: one per tone-map slot of the
/// AC half cycle plus the ROBO default (§2.1).
struct ToneMapSet {
  std::vector<ToneMap> slots;  ///< size = PhyParams::tone_map_slots
  ToneMap robo;

  /// Average BLE over the slots — what `int6krate` reports and what the
  /// paper calls "average BLE" (Table 2, §6).
  [[nodiscard]] double average_ble_mbps() const;
};

}  // namespace efd::plc
