#include "src/grid/simd.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/grid/db_units.hpp"
#include "src/grid/simd_elementwise.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/isa.hpp"

namespace efd::grid::simd {

namespace {

// --- scalar entry ----------------------------------------------------------
// Operation-for-operation transcriptions of the loops these kernels replaced
// (power_grid.cpp / tone_map.cpp / channel.cpp as of PR 1): same op order,
// same libm calls, so EFD_SIMD=scalar figures are byte-identical to the
// pre-dispatch binaries and the scalar entry doubles as the bit-exact
// reference the vector entries are diffed against. The five element-wise
// kernels are the shared loops of simd_elementwise.hpp, compiled here with
// the baseline flags.

void s_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = linear_to_db(lin[i]);
}

void s_ber_weighted_sum_n(const InterpTableView& lut, const std::int32_t* row_off,
                          const double* bits, const double* snr_db, double gain_db,
                          std::size_t n, double* weighted_ber, double* total_bits) {
  const double last = static_cast<double>(lut.size - 1);
  double wb = 0.0;
  double tb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lut.table + row_off[i];
    const double pos = (snr_db[i] + gain_db - lut.min_db) / lut.step_db;
    double v;
    if (pos <= 0.0) {
      v = row[0];
    } else if (pos >= last) {
      v = row[lut.size - 1];
    } else {
      const auto idx = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(idx);
      v = row[idx] + frac * (row[idx + 1] - row[idx]);
    }
    wb += v * bits[i];
    tb += bits[i];
  }
  *weighted_ber = wb;
  *total_bits = tb;
}

}  // namespace

namespace detail {
std::int64_t bit_load_n_scalar(const BitLoadTable& table, const double* snr_db,
                               double margin_db, std::size_t n, std::uint8_t* level,
                               std::int32_t* row_off, double* bits) {
  // A local copy: the byte stores below may alias the table, which would
  // otherwise force a reload of every threshold per carrier.
  const BitLoadTable t = table;
  const auto& th = t.thresholds;
  static_assert(BitLoadTable::kLevels == 8, "one compare per threshold below");
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = snr_db[i] - margin_db;
    const int m = int{x >= th[0]} + int{x >= th[1]} + int{x >= th[2]} +
                  int{x >= th[3]} + int{x >= th[4]} + int{x >= th[5]} +
                  int{x >= th[6]};
    const std::int32_t b = t.bits[static_cast<std::size_t>(m)];
    total += b;
    level[i] = static_cast<std::uint8_t>(m);
    row_off[i] = m * t.row_len;
    bits[i] = static_cast<double>(b);
  }
  return total;
}

ReachBoundaries reach_boundaries(const BitLoadTable& table, const double* margins_db,
                                 std::size_t n_margins) {
  assert(n_margins <= kMaxReachMargins);
  ReachBoundaries r;
  double max_th = 0.0;
  double max_m = 0.0;
  for (const double th : table.thresholds) max_th = std::max(max_th, std::fabs(th));
  for (std::size_t k = 0; k < n_margins; ++k) {
    max_m = std::max(max_m, std::fabs(margins_db[k]));
    for (const double th : table.thresholds) r.at[r.count++] = th + margins_db[k];
  }
  // Equal margins and thresholds spaced like the ladder's steps repeat
  // boundaries; the minimum over a set does not care.
  std::sort(r.at.begin(), r.at.begin() + static_cast<std::ptrdiff_t>(r.count));
  r.count = static_cast<std::size_t>(
      std::unique(r.at.begin(), r.at.begin() + static_cast<std::ptrdiff_t>(r.count)) -
      r.at.begin());
  r.scale = max_th + max_m;
  return r;
}

void bit_load_reach_n_scalar(const BitLoadTable& table, const double* margins_db,
                             std::size_t n_margins, const double* snr_db,
                             std::size_t n, double* reach) {
  const ReachBoundaries b = reach_boundaries(table, margins_db, n_margins);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = snr_db[i];
    double gap = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < b.count; ++k) {
      const double d = std::fabs(x - b.at[k]);
      gap = d < gap ? d : gap;
    }
    reach[i] = gap - (std::fabs(x) + b.scale) * 0x1p-44;
  }
}
}  // namespace detail

namespace {

constexpr CarrierKernels kScalar = {
    "scalar",
    &s_linear_to_db_n,
    &elementwise_affine_n,
    &elementwise_accumulate_notch_n,
    &elementwise_accumulate_scaled_n,
    &elementwise_assemble_snr_n,
    &elementwise_shift_n,
    &s_ber_weighted_sum_n,
    &detail::bit_load_n_scalar,
    &detail::bit_load_reach_n_scalar,
};

}  // namespace

const CarrierKernels& scalar_kernels() { return kScalar; }

#if defined(__x86_64__) || defined(_M_X64)
namespace detail {
// Defined in simd_avx2.cpp, the only TU compiled with -mavx2 -mfma.
const CarrierKernels* avx2_kernels_impl();
}  // namespace detail
#endif

#if defined(__aarch64__)
namespace detail {
// Defined in simd_neon.cpp; Advanced SIMD is baseline on AArch64.
const CarrierKernels* neon_kernels_impl();
}  // namespace detail
#endif

const CarrierKernels* avx2_kernels() {
#if defined(__x86_64__) || defined(_M_X64)
  return sim::isa::available(sim::isa::Level::kAvx2) ? detail::avx2_kernels_impl()
                                                     : nullptr;
#else
  return nullptr;
#endif
}

const CarrierKernels* neon_kernels() {
#if defined(__aarch64__)
  return detail::neon_kernels_impl();
#else
  return nullptr;
#endif
}

std::span<const CarrierKernels* const> available_kernels() {
  static const auto list = [] {
    std::array<const CarrierKernels*, 3> a{};
    std::size_t n = 0;
    a[n++] = &kScalar;
    if (const CarrierKernels* k = avx2_kernels()) a[n++] = k;
    if (const CarrierKernels* k = neon_kernels()) a[n++] = k;
    return std::pair{a, n};
  }();
  return {list.first.data(), list.second};
}

namespace {
/// The entry of a level sim::isa reports available.
const CarrierKernels& kernels_for(sim::isa::Level level) {
  switch (level) {
    case sim::isa::Level::kAvx2: return *avx2_kernels();
    case sim::isa::Level::kNeon: return *neon_kernels();
    case sim::isa::Level::kScalar: break;
  }
  return kScalar;
}
}  // namespace

const CarrierKernels& select_kernels(std::string_view want) {
  return kernels_for(sim::isa::resolve(want));
}

int impl_index(const CarrierKernels& k) {
  if (&k == avx2_kernels()) return 1;
  if (&k == neon_kernels()) return 2;
  return 0;
}

const CarrierKernels& active_kernels() {
  static const CarrierKernels& k = kernels_for(sim::isa::active());
  // Record the chosen code path so every BENCH_*.json / --metrics snapshot
  // names what it measured (0 scalar, 1 avx2, 2 neon). Re-asserted on every
  // call (one relaxed store per batch query) so the gauge survives metric
  // resets in tests and long-lived tools.
  EFD_GAUGE_SET("carrier_math.impl", impl_index(k));
  return k;
}

int active_impl_index() { return impl_index(active_kernels()); }

const char* active_impl_name() { return active_kernels().name; }

}  // namespace efd::grid::simd
