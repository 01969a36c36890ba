#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void Mix(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void MixU64(uint64_t* h, uint64_t v) { Mix(h, &v, sizeof(v)); }

uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

uint64_t CanonicalDouble(double v) {
  if (std::isnan(v)) return 0x7ff8000000000000ull;
  if (std::isinf(v)) return v > 0 ? 1 : 2;
  int exp = 0;
  const double m = std::frexp(v, &exp);  // |m| in [0.5, 1) or 0
  const int64_t q = std::llround(std::ldexp(m, 30));
  if (q == 0) return 3;  // ±0
  return (static_cast<uint64_t>(q) << 16) ^
         static_cast<uint64_t>(static_cast<uint16_t>(exp));
}

}  // namespace

uint64_t ResultFingerprint(const pocs::columnar::RecordBatch& batch) {
  using pocs::columnar::TypeKind;
  uint64_t total = 0;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    uint64_t h = kFnvOffset;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const auto& col = *batch.column(c);
      MixU64(&h, c);
      if (col.IsNull(r)) {
        MixU64(&h, 0x6e756c6cull);
        continue;
      }
      switch (col.type()) {
        case TypeKind::kBool:
          MixU64(&h, col.GetBool(r) ? 1 : 0);
          break;
        case TypeKind::kInt32:
        case TypeKind::kDate32:
          MixU64(&h, static_cast<uint64_t>(
                         static_cast<int64_t>(col.GetInt32(r))));
          break;
        case TypeKind::kInt64:
          MixU64(&h, static_cast<uint64_t>(col.GetInt64(r)));
          break;
        case TypeKind::kFloat64:
          MixU64(&h, CanonicalDouble(col.GetFloat64(r)));
          break;
        case TypeKind::kString: {
          const auto s = col.GetString(r);
          MixU64(&h, s.size());
          Mix(&h, s.data(), s.size());
          break;
        }
      }
    }
    total += Finalize(h);
  }
  return Finalize(total ^ (static_cast<uint64_t>(batch.num_rows()) << 1));
}

}  // namespace perfbench
