#include "src/grid/simd.hpp"

#include <array>

#include "src/grid/db_units.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/isa.hpp"

namespace efd::grid::simd {

namespace {

// --- scalar entry ----------------------------------------------------------
// Operation-for-operation transcriptions of the loops these kernels replaced
// (power_grid.cpp / tone_map.cpp / channel.cpp as of PR 1): same op order,
// same libm calls, so EFD_SIMD=scalar figures are byte-identical to the
// pre-dispatch binaries and the scalar entry doubles as the bit-exact
// reference the vector entries are diffed against.

void s_db_to_linear_n(const double* db, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = db_to_linear(db[i]);
}

void s_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = linear_to_db(lin[i]);
}

void s_affine_n(double add, double slope, const double* x, double* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add + slope * x[i];
}

void s_accumulate_notch_n(double broadband, double depth, const double* s,
                          double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = s[i];
    acc[i] += broadband + depth * v * v;
  }
}

void s_accumulate_scaled_n(double scale, const double* x, double* acc,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += scale * x[i];
}

void s_assemble_snr_n(double c, const double* a, const double* b, double* out,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = c - a[i] - b[i];
}

void s_shift_n(const double* in, double offset, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] - offset;
}

double s_sum_db_to_linear_n(const double* db, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += db_to_linear(db[i]);
  return sum;
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
}  // namespace detail

namespace {

constexpr CarrierKernels kScalar = {
    "scalar",
    &s_db_to_linear_n,
    &s_linear_to_db_n,
    &s_affine_n,
    &s_accumulate_notch_n,
    &s_accumulate_scaled_n,
    &s_assemble_snr_n,
    &s_shift_n,
    &s_sum_db_to_linear_n,
    &s_ber_weighted_sum_n,
    &detail::bit_load_n_scalar,
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
