// Summary statistics and answer fingerprints for the benchmark.
#pragma once

#include <cstdint>
#include <vector>

#include "columnar/batch.h"

namespace perfbench {

// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Order-insensitive fingerprint of a result table. Each row is hashed
// from canonical values (float64 rounded to 30 mantissa bits, so plans
// that add in a different order still agree) and the row hashes are
// summed, so row order does not matter but multiplicity does.
uint64_t ResultFingerprint(const pocs::columnar::RecordBatch& batch);

}  // namespace perfbench
