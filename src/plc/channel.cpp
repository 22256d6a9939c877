#include "src/plc/channel.hpp"

#include <cassert>
#include <cmath>

#include "src/grid/simd.hpp"
#include "src/obs/obs.hpp"

namespace efd::plc {

void PlcChannel::attach_station(net::StationId id, int outlet) {
  assert(outlet >= 0 && outlet < grid_.node_count());
  outlets_[id] = outlet;
}

int PlcChannel::outlet(net::StationId id) const {
  const auto it = outlets_.find(id);
  assert(it != outlets_.end() && "station not attached to the grid");
  return it->second;
}

int PlcChannel::slot_at(sim::Time t) const {
  const double phase = grid::Mains::half_cycle_phase(t);
  const int slot = static_cast<int>(phase * phy_.tone_map_slots);
  return std::min(slot, phy_.tone_map_slots - 1);
}

PlcChannel::SnrEntry& PlcChannel::entry(net::StationId a, net::StationId b, int slot,
                                        sim::Time t) const {
  const std::uint64_t epoch = grid_.state_epoch(t);
  if (!cache_epoch_valid_ || cache_epoch_ != epoch) {
    // Appliance state moved: every cached vector and memo is stale. Evict
    // wholesale so entries for links that are never queried again cannot
    // accumulate across epochs.
    EFD_COUNTER_INC("plc.channel.cache_evictions");
    cache_.clear();
    atten_cache_.clear();
    cache_epoch_ = epoch;
    cache_epoch_valid_ = true;
  }
  SnrEntry& e = cache_[link_key(a, b, slot)];
  if (e.epoch == epoch && !e.snr_db.empty()) {
    EFD_COUNTER_INC("plc.channel.snr_cache_hits");
    return e;
  }
  EFD_COUNTER_INC("plc.channel.snr_cache_misses");

  const int oa = outlet(a);
  const int ob = outlet(b);
  AttenEntry& ae = atten_cache_[link_key(a, b, 0x3f)];
  if (ae.epoch != epoch || ae.att_db.empty()) {
    grid_.attenuation_db(oa, ob, phy_.band, t, ae.att_db);
    ae.epoch = epoch;
  }
  const auto& att = ae.att_db;
  // Cache-miss rebuilds and offset-shifted SNR copies run on per-thread
  // scratch: allocation-free without threading a workspace through callers.
  grid::CarrierWorkspace& ws = grid::thread_scratch<grid::CarrierWorkspace>();
  const auto noise =
      grid_.noise_psd_db(ob, phy_.band, t, slot, phy_.tone_map_slots, ws);
  e.snr_db.resize(att.size());
  grid::simd::active_kernels().assemble_snr_n(phy_.tx_psd_db, att.data(),
                                              noise.data(), e.snr_db.data(),
                                              att.size());
  e.epoch = epoch;
  e.pberr.clear();
  return e;
}

const std::vector<double>& PlcChannel::static_snr_db(net::StationId a, net::StationId b,
                                                     int slot, sim::Time t) const {
  return entry(a, b, slot, t).snr_db;
}

double PlcChannel::fast_offset_db(net::StationId b, sim::Time t) const {
  return grid_.fast_noise_offset_db(outlet(b), t);
}

std::vector<double> PlcChannel::snr_db(net::StationId a, net::StationId b, int slot,
                                       sim::Time t) const {
  std::vector<double> snr = entry(a, b, slot, t).snr_db;
  const double offset = fast_offset_db(b, t);
  grid::simd::active_kernels().shift_n(snr.data(), offset, snr.data(), snr.size());
  return snr;
}

std::span<const double> PlcChannel::snr_db(net::StationId a, net::StationId b, int slot,
                                           sim::Time t,
                                           grid::CarrierWorkspace& ws) const {
  const auto& snr = entry(a, b, slot, t).snr_db;
  const double offset = fast_offset_db(b, t);
  grid::CarrierWorkspace::Guard guard(ws);
  ws.snr_db.resize(snr.size());
  grid::simd::active_kernels().shift_n(snr.data(), offset, ws.snr_db.data(),
                                       snr.size());
  return ws.snr_db;
}

double PlcChannel::pb_error_probability(const ToneMap& tm, net::StationId a,
                                        net::StationId b, int slot, sim::Time t) const {
  SnrEntry& e = entry(a, b, slot, t);
  const double offset = fast_offset_db(b, t);
  // Quantize the scalar offset to 0.25 dB buckets for memoization.
  const auto bucket = static_cast<std::int64_t>(std::lround(offset * 4.0));
  const std::uint64_t key =
      (static_cast<std::uint64_t>(tm.id()) << 20) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(bucket + 512));
  const auto it = e.pberr.find(key);
  if (it != e.pberr.end()) {
    EFD_COUNTER_INC("plc.channel.pberr_memo_hits");
    return it->second;
  }
  EFD_COUNTER_INC("plc.channel.pberr_memo_misses");

  // Shift into per-thread scratch instead of copying the 917-entry vector.
  grid::CarrierWorkspace& ws = grid::thread_scratch<grid::CarrierWorkspace>();
  grid::CarrierWorkspace::Guard guard(ws);
  const double off = static_cast<double>(bucket) / 4.0;
  ws.snr_db.resize(e.snr_db.size());
  grid::simd::active_kernels().shift_n(e.snr_db.data(), off, ws.snr_db.data(),
                                       e.snr_db.size());
  const double p = tm.pb_error_probability(ws.snr_db, phy_);
  // Bound the memo: tone maps churn on bad links, so evict wholesale.
  if (e.pberr.size() > 4096) e.pberr.clear();
  e.pberr[key] = p;
  return p;
}

double PlcChannel::cable_distance(net::StationId a, net::StationId b) const {
  return grid_.cable_distance(outlet(a), outlet(b));
}

double PlcChannel::mean_snr_db(net::StationId a, net::StationId b, int slot,
                               sim::Time t) const {
  const auto snr = snr_db(a, b, slot, t);
  double sum = 0.0;
  for (double v : snr) sum += v;
  return snr.empty() ? 0.0 : sum / static_cast<double>(snr.size());
}

}  // namespace efd::plc
